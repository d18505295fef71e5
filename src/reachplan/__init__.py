"""Motion planning and control over piecewise-affine abstractions.

Plans for agents with unknown control-affine dynamics by adaptively
partitioning the state space, identifying local affine models online,
certifying facet-to-facet reachability (exactly or under Lipschitz model
uncertainty), and planning over an entropy-weighted reachability graph.
"""

from .deviation import DeviationBounds, cell_pair_bounds, deviation_bounds
from .dynamics import (AffineModel, Trajectory, TrueSystem, analytic_linearize,
                       integrate, mecanum_system, unicycle_system)
from .geometry import Box, Polytope, Simplex, box_to_polytope, locate_simplex, triangulate
from .graph import ReachGraph, edge_entropy, replay, uncertain_weight
from .partition import PartitionTree, adjacency, segment_intersects, uniform_cell_count
from .planner import MissionLog, run_mission
from .reach import (ExitTimeBound, PWAController, ReachCertificate,
                    exit_time_bound, facet_reachable, predict_reachable,
                    predict_unreachable, relaxed_facet_reachable,
                    robust_exit_time_bound, synthesize_controller)
from .scenario import Scenario, builtin_scenario
from .sysid import ExcitationPlan, identify_affine
from .terminal import TerminalParams, clf_cbf_control

__version__ = "0.1.0"
