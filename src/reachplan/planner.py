"""Top-level mission loop: partition, identify, certify, plan, execute.

Each iteration refines the partition along the segment from the current
state to the target, identifies the current cell's local affine model if
needed, certifies reachability of the current cell's facets (exactly) and
of nearby unidentified cells (predictively), updates the reachability
graph, plans a shortest path, and executes its first edge with a
synthesized piecewise-affine controller. Inside the target cell a CLF-CBF
quadratic program takes over.
"""
from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from operator import mul, sub
from typing import Optional

import numpy as np

from . import graph as gr
from .deviation import cell_pair_bounds
from .dynamics import AffineModel, Trajectory, integrate
from .geometry import (Box, GeometryError, box_to_polytope, boxes_to_polytopes, dot,
                       facet_axis_dir)
from .optim import STATS, SolverError
from .partition import PartitionTree, uniform_cell_count
from .reach import (facet_reachable, fastest_control, predict_reachable, predict_unreachable,
                    relaxed_facet_reachable, synthesize_controller)
from .scenario import Scenario
from .sysid import ExcitationPlan, identify_affine
from .terminal import TerminalParams, barrier_rows, clf_cbf_control

# RK4 steps that each ingress control is held: the ingress law's time
# constant tau is their duration
INGRESS_CHUNK = 5
# the ingress before identification ends after this many tau, and the cell
# is identified from the margin reached
INGRESS_BUDGET = 4
# the most ingress control updates before the terminal phase
MAX_INGRESS_CHUNKS = 4000


@dataclass
class MissionLog:
    events: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    traj_t: list = field(default_factory=list)
    traj_x: list = field(default_factory=list)
    traj_u: list = field(default_factory=list)
    traj_cell: list = field(default_factory=list)
    status: str = "incomplete"
    final_distance: float = float("nan")
    metrics: dict = field(default_factory=dict)

    def event(self, t: float, kind: str, /, **payload):
        self.events.append({"t": t, "type": kind, **payload})

    def append_traj(self, traj: Trajectory, t0: float, cell_id: int):
        """One row per sample, with the control applied from it."""
        self.traj_t.extend(t0 + traj.t)
        self.traj_x.extend(traj.x)
        self.traj_u.extend([*traj.u, traj.u[-1]])
        self.traj_cell.extend([cell_id] * len(traj.t))

    @property
    def success(self) -> bool:
        return self.status == "success"


@dataclass
class _WorkspaceExit(Exception):
    """The state left the workspace from cell ``cell``: the mission ends."""
    cell: int


class _Mission:
    """Mutable mission state for one run."""

    def __init__(self, scn: Scenario):
        self.scn = scn
        self.sys = scn.make_system()
        self.pu = scn.pu()
        self.ws = scn.workspace()
        self.tree = PartitionTree(scn.ws_lo, scn.ws_hi, scn.h_min)
        self.graph = gr.ReachGraph(scn.C_u, scn.beta_u, scn.p_prior)
        self.models: dict = {}        # cell id -> identified AffineModel
        self.retries = defaultdict(int)
        self.escape_count = 0
        self.log = MissionLog()
        self.x = scn.x_init.copy()
        self.t = 0.0
        self.cur_id: int = -1
        self.last_model: Optional[AffineModel] = None
        self.last_u: Optional[np.ndarray] = None

    # ---------------- helpers ----------------

    def current_cell(self) -> Box:
        """Leaf the agent is in, sticky across boundary ties: once a
        transition commits to a cell, stay with it while the state remains
        inside (within tolerance)."""
        if self.cur_id in self.tree.leaves:
            c = self.tree.leaves[self.cur_id]
            if c.contains(self.x, tol=1e-7):
                return c
        c = self.tree.locate(self.x)
        self.cur_id = c.id
        return c

    def locate_after_exit(self, exit_fct: int, cell: Box) -> Box:
        """Leaf entered through ``exit_fct`` of ``cell``, which becomes the
        current cell. A crossing out of the workspace raises _WorkspaceExit,
        which ends the mission."""
        axis, d = facet_axis_dir(exit_fct)
        probe = self.x.copy()
        probe[axis] += d * 1e-7
        if not self.ws.contains(probe, tol=0.0):
            raise _WorkspaceExit(cell.id)
        entered = self.tree.locate(probe)
        self.cur_id = entered.id
        return entered

    def advance(self, ctrl, cell: Box, t_max: float,
                stride: Optional[int] = None) -> Trajectory:
        """Roll the plant out under ``ctrl`` until it leaves ``cell``,
        ``t_max`` passes or ``ctrl`` returns None, log the samples of a
        rollout that took a step against the cell and move the mission
        clock and state to the rollout's end. Samples are recorded every
        ``stride`` steps, by default every ``record_stride``."""
        traj = integrate(self.sys, ctrl, self.x, cell, self.scn.dt, t_max,
                         pu=self.pu, record_stride=stride or self.scn.record_stride)
        if len(traj.u):
            self.log.append_traj(traj, self.t, cell.id)
        self.t += traj.t[-1]
        self.x = traj.final_state
        return traj

    def advance_held(self, law, cell: Box, updates: int, k: int = 10,
                     stride: Optional[int] = None) -> Trajectory:
        """``advance`` for at most ``updates`` periods of ``k`` steps, each
        under the control that ``law`` computes from the state at its start.
        ``law`` returning None ends the rollout."""
        steps = itertools.count()
        u = None

        def ctrl(x):
            nonlocal u
            if next(steps) % k == 0:
                u = law(x)
            return u

        return self.advance(ctrl, cell, updates * k * self.scn.dt, stride)

    def crossing_budget(self, cell: Box, facet: int, model: Optional[AffineModel]) -> float:
        """Time allowed to cross ``facet`` of ``cell`` without a certified
        time bound: three cell sides along the facet's axis at the model's
        zero-input speed at the current state (at least 0.1, or 1 without a
        model), and no less than 50 steps."""
        speed = 1.0
        if model is not None:
            speed = max(float(np.linalg.norm(model.xdot(self.x, np.zeros(self.pu.dim)))), 0.1)
        return max(3.0 * float(cell.sides[facet // 2]) / speed, 50 * self.scn.dt)

    def pinned(self, cell: Box, e: gr.Edge) -> bool:
        """Whether the edge's target is the cell's only neighbour across
        the edge's facet. Otherwise the cell's facet is larger than the one
        it shares with the target, and which neighbour a crossing enters
        cannot be pinned down."""
        return list(self.tree.neighbours[cell.id].values()).count(e.facet) == 1

    # ---------------- identification ----------------

    def gain_margin(self, cell: Box, need: float, chunks: int = MAX_INGRESS_CHUNKS) -> bool:
        """Push the state toward the cell interior until every facet is at
        least ``need`` away or ``chunks`` control updates have passed. One
        rollout recomputes the ingress control every INGRESS_CHUNK steps
        and stops at the first update where the margin is reached.
        Returns False if the cell was escaped."""
        lo, hi = cell.lo.tolist(), cell.hi.tolist()
        ingress = self._ingress_law(cell)
        prev = -math.inf
        hold = False

        def law(x):
            nonlocal prev, hold
            now = min(min(map(sub, x, lo)), min(map(sub, hi, x)))
            if now >= need:
                return None
            if now <= prev + 1e-12:
                # no progress with the current candidate, switch strategy
                hold = not hold if self.last_u is not None else False
            prev = now
            # the control that carried us across the entry facet tends to
            # keep pointing into this cell, so hold it to penetrate
            return self.last_u if hold else ingress(x)

        traj = self.advance_held(law, cell, chunks, INGRESS_CHUNK, INGRESS_CHUNK)
        if traj.exit_facet is None:
            return True
        self.retries[cell.id] += 1
        self.log.event(self.t, "ingress_escape", cell=cell.id, facet=int(traj.exit_facet))
        self.locate_after_exit(traj.exit_facet, cell)
        return False

    def ingress_need(self, cell: Box, plan: ExcitationPlan) -> float:
        """Margin to gain before identifying ``cell``: three plan durations
        of travel at the speed seen during identification, at most a
        quarter of the cell's shortest side."""
        speed = 1.0                 # crossing_budget's speed without a model
        if self.last_model is not None:
            m = self.last_model
            # drift plus the excitation amplitude through the input matrix
            speed = float(np.linalg.norm(m.A @ self.x + m.c)
                          + plan.amplitude * np.linalg.norm(m.B, 2))
        need = 3.0 * len(plan.inputs) * plan.period * speed
        return min(need, 0.25 * float(np.min(cell.sides)))

    def ingress_and_identify(self, cell: Box) -> bool:
        """Move away from the entry facet if needed, then identify the cell.
        Returns False when the state escaped the cell (caller replans)."""
        plan = ExcitationPlan.default(self.pu, self.sys.m, period=self.scn.ident_period,
                                      n=self.sys.n)
        need = self.ingress_need(cell, plan)
        # where the plant barely beats its drift the margin comes slowly;
        # identification then starts from what the budget reached, and an
        # escape during it aborts it like any other
        if not self.gain_margin(cell, need, INGRESS_BUDGET):
            return False
        model, self.x = identify_affine(self.sys, self.x, plan, cell=cell)
        self.t += len(plan.inputs) * plan.period
        if model is None:
            self.log.event(self.t, "identification_abort", cell=cell.id)
            return False
        self.models[cell.id] = model
        self.log.event(self.t, "identified", cell=cell.id,
                       point=model.linearization_point.tolist())
        return True

    def _ingress_law(self, cell: Box):
        """The ingress control as a function of the state (a list of
        floats): cancel the modeled drift and aim at the cell center with
        velocity d / tau, clipped to the input box. d is the offset to the
        center and tau the INGRESS_CHUNK steps that each control is held:
        on the model, one held control carries the state to the center,
        and no shorter tau keeps the held control from overshooting it."""
        if self.last_model is None:
            zero = [0.0] * self.pu.dim
            return lambda x: zero
        m = self.last_model
        A, c, B_pinv = m.A.tolist(), m.c.tolist(), m.B_pinv.tolist()
        center = cell.center.tolist()
        u_lo, u_hi = self.pu.lo.tolist(), self.pu.hi.tolist()
        rate = 1.0 / (INGRESS_CHUNK * self.scn.dt)

        def law(x):
            # desired velocity minus the modeled drift
            dv = [rate * (ci - xi) - (sum(map(mul, row, x)) + cj)
                  for ci, xi, row, cj in zip(center, x, A, c)]
            return [min(max(sum(map(mul, row, dv)), lo), hi)
                    for row, lo, hi in zip(B_pinv, u_lo, u_hi)]

        return law

    # ---------------- certification ----------------

    def pending(self, cid: int, skip) -> dict:
        """The uncertain out-edges nb -> Edge of cell ``cid`` that
        skip(edge) does not leave out, in out-list order."""
        return {nb: e for nb in self.graph.out.get(cid, ())
                if (e := self.graph.edges[(cid, nb)]).status == gr.UNCERTAIN and not skip(e)}

    def certify_current(self, cell: Box) -> int:
        """Exact/relaxed certification of the current cell's uncertain
        outgoing edges without a certificate, in one call for their distinct
        exit facets. Returns the number of edge statuses resolved."""
        edges = self.pending(cell.id, lambda e: e.cert is not None)
        if not edges:
            return 0
        exits = list(dict.fromkeys(e.facet for e in edges.values()))
        model = self.models[cell.id]
        if self.scn.underactuated:
            found = relaxed_facet_reachable(model, cell, exits, self.pu,
                                            self.scn.theta_thre, self.scn.shrink)
        else:
            found = facet_reachable(model, box_to_polytope(cell), exits, self.pu)
        certs = dict(zip(exits, found))
        resolved = 0
        for nb, e in edges.items():
            cert = certs[e.facet]
            if cert is None:
                # the relaxed condition is only sufficient, so its failure on
                # a splittable cell calls for refinement rather than a verdict
                if self.scn.underactuated and self.split_cell(cell):
                    self.log.event(self.t, "cell_split", cell=cell.id)
                    return resolved + 1
                # on an underactuated scenario the relaxed condition is not a
                # proof of unreachability, so forced_escape may still try it
                self.graph.mark_impossible(cell.id, nb)
                resolved += 1
                continue
            e.cert = cert
            if cert.bound is not None and self.pinned(cell, e):
                self.graph.mark_certain(cell.id, nb, cert)
                resolved += 1
        return resolved

    def nearest_models(self, cells: list) -> list:
        """Per cell, the id of the identified cell whose linearization point
        is nearest the cell's center (the first such in ``self.models``
        order), from one stacked distance array."""
        ids = list(self.models)
        points = np.array([self.models[cid].linearization_point for cid in ids])
        centers = 0.5 * (np.array([c.lo for c in cells]) + np.array([c.hi for c in cells]))
        diff = points[None] - centers[:, None]                          # (cells, models, n)
        dist = np.sqrt(dot(diff, diff)).tolist()
        return [ids[min(range(len(ids)), key=row.__getitem__)] for row in dist]

    def predictive_pass(self) -> int:
        """Predictive certification on unidentified cells near identified
        ones. The questions of every cell go to one refutation and at most
        one certification call. Marking an edge touches only that edge, so
        the cells are independent within a pass and are marked afterwards,
        in cell order. An underactuated scenario runs no pass."""
        # a predictive verdict is an exact-condition verdict: its refutation
        # is no proof against a relaxed certificate, and underactuated
        # plants rarely meet the exact conditions it would certify
        if self.scn.underactuated or not self.models:
            return 0
        hops = {cid: 0 for cid in self.models if cid in self.tree.leaves}
        frontier = list(hops)
        for _ in range(2):
            nxt = []
            for cid in frontier:
                for nb in self.graph.out.get(cid, ()):
                    if nb not in hops:
                        hops[nb] = hops[cid] + 1
                        nxt.append(nb)
            frontier = nxt
        cells = [self.tree.leaves[cid] for cid, h in sorted(hops.items())
                 if h and cid not in self.models]
        if not cells:
            return 0
        asks = []         # (cell, source id, pending edges)
        questions = []    # (source model, deviation bounds) per ask
        for cell, src_cid in zip(cells, self.nearest_models(cells)):
            edges = self.pending(cell.id, lambda e: src_cid in e.pred_sources)
            if not edges:
                continue
            src = self.models[src_cid]
            asks.append((cell, src_cid, edges))
            questions.append((src, cell_pair_bounds(self.scn.L_df, self.scn.L_g,
                                                    src.linearization_point, cell)))
        if not asks:
            return 0
        polys = boxes_to_polytopes([cell for cell, *_ in asks])
        exits = [list(dict.fromkeys(e.facet for e in edges.values())) for *_, edges in asks]
        refuted = [dict(zip(fs, r)) for fs, r in zip(exits, predict_unreachable(
            [(src, bounds, poly, fs) for (src, bounds), poly, fs in zip(questions, polys, exits)],
            self.pu))]
        pinned = [[e for e in edges.values() if not ref[e.facet] and self.pinned(cell, e)]
                  for (cell, _, edges), ref in zip(asks, refuted)]
        asked = [k for k, es in enumerate(pinned) if es]
        certs = [{} for _ in asks]
        if asked:
            answers = predict_reachable(
                [(*questions[k], polys[k], [e.facet for e in pinned[k]]) for k in asked],
                self.pu)
            # a pinned edge is the only edge through its facet
            for k, found in zip(asked, answers):
                certs[k] = dict(zip((e.facet for e in pinned[k]), found))
        resolved = 0
        for (cell, src_cid, edges), ref, found in zip(asks, refuted, certs):
            for nb, e in edges.items():
                e.pred_sources += (src_cid,)
                if ref[e.facet]:
                    self.graph.mark_impossible(cell.id, nb)
                    resolved += 1
                elif (cert := found.get(e.facet)) is not None:
                    self.graph.mark_certain(cell.id, nb, cert)
                    resolved += 1
        return resolved

    # ---------------- partition maintenance ----------------

    def refine(self) -> int:
        split_ids = self.tree.refine_segment(self.x, self.scn.x_target)
        for pid in split_ids:
            self.models.pop(pid, None)
        return len(split_ids)

    def split_cell(self, cell: Box) -> bool:
        """Split one leaf and forget its model."""
        if not self.tree.splittable_axes(cell):
            return False
        self.tree.split(cell)
        self.models.pop(cell.id, None)
        return True

    # ---------------- execution ----------------

    def execute_edge(self, cell: Box, nb: int) -> bool:
        """Drive the plant across the edge to ``nb`` under its certificate's
        controller. True when the state left the cell; False when the edge
        has no usable certificate or the crossing timed out."""
        scn = self.scn
        e = self.graph.edges[(cell.id, nb)]
        cert = e.cert
        if cert is None:
            return False
        try:
            ctrl = synthesize_controller(cert.polytope, cert.controls)
        except GeometryError:
            # a (nearly) flat simplex of the certified polytope carries no
            # affine law; the certificate is unusable, so plan without the edge
            e.failures = gr.MAX_EDGE_FAILURES
            self.log.event(self.t, "degenerate_certificate", cell=cell.id, to=nb)
            return False
        bound = cert.bound.T0 if e.status == gr.CERTAIN else None
        if bound:
            # worst-case bounds from grazing certificates can reach hours;
            # budget a generous multiple of the typical crossing time instead
            timeout = max(min(3.0 * bound, 20.0 * max(e.weight, scn.dt)), 50 * scn.dt)
        else:
            timeout = self.crossing_budget(cell, e.facet, self.models.get(cell.id))
        traj = self.advance(ctrl, cell, timeout)
        self.last_u = traj.u[-1]
        if cell.id in self.models:
            self.last_model = self.models[cell.id]
        if traj.exit_facet is None:
            # certificate did not carry the state across in a generous time
            # budget; disqualify the edge rather than charging the cell
            self.log.event(self.t, "traversal_timeout", cell=cell.id, to=nb)
            e.failures += 1
            return False
        entered = self.locate_after_exit(traj.exit_facet, cell)
        # keep the same feedback law running briefly so the crossing velocity
        # carries the state clear of the shared facet before handing over;
        # the traversal is judged by the cell entered at the crossing
        pen = self.advance(ctrl, entered, 20 * scn.dt)
        self.last_u = pen.u[-1]
        if pen.exit_facet is not None:
            self.locate_after_exit(pen.exit_facet, entered)
        if entered.id != nb or traj.exit_facet != e.facet:
            e.failures += 1
            self.log.event(self.t, "unintended_exit", cell=cell.id,
                           intended=nb, actual=entered.id,
                           intended_facet=e.facet,
                           actual_facet=int(traj.exit_facet))
        else:
            self.log.event(self.t, "edge_traversed", source=cell.id, target=nb,
                           exit_time=traj.exit_time,
                           bound=bound, status=e.status, kind=cert.kind)
        return True

    def centering_maneuver(self, cell: Box, duration: float):
        """Short CLF-CBF push toward the cell center to unblock planning."""
        model = self.models.get(cell.id)
        if model is None:
            return
        params = TerminalParams(alpha=4.0, kappa=self.scn.terminal_kappa,
                                slack_weight=self.scn.terminal_slack_weight)

        def law(x):
            try:
                return clf_cbf_control(model, x, cell.center, cell, self.pu, params).u
            except SolverError:
                return None

        traj = self.advance_held(law, cell, max(1, int(duration / (10 * self.scn.dt))))
        if traj.exit_facet is not None:
            self.locate_after_exit(traj.exit_facet, cell)
            return
        self.log.event(self.t, "centering", cell=cell.id)

    def forced_escape(self, cell: Box) -> bool:
        """Last-resort crossing when every path out of the current cell has
        been refuted, on an underactuated scenario only. There an impossible
        mark comes from a failed (sufficient-only) relaxed certification,
        which is no proof, so pick the most promising of those facets and
        push through it, re-solving a one-point fastest-control LP as the
        state moves; whatever facet the state actually leaves by is
        accepted, exactly as for an unintended exit."""
        model = self.models.get(cell.id)
        if not self.scn.underactuated or model is None or self.escape_count >= 25:
            return False
        edges = self.graph.edges
        candidates = [nb for nb in self.graph.out.get(cell.id, ())
                      if edges[(cell.id, nb)].status == gr.IMPOSSIBLE]

        def rank(nb):
            # rotation facets first: the heading rate is directly actuated
            return (0 if edges[(cell.id, nb)].facet // 2 == cell.dim - 1 else 1, nb)

        u_abs = float(np.max(np.abs(np.concatenate([self.pu.lo, self.pu.hi]))))
        kappa = 2.0 * u_abs / float(np.min(cell.sides))
        for nb in sorted(candidates, key=rank):
            fct = edges[(cell.id, nb)].facet

            def law(x):
                # the exit facet's row is the gain; the barrier rows of the
                # others approach them no faster than in proportion to the
                # distance left to them
                rows, rhs = barrier_rows(model, cell, x, kappa)
                return fastest_control(rows[fct], np.delete(rows, fct, axis=0),
                                       np.delete(rhs, fct), self.pu)

            timeout = self.crossing_budget(cell, fct, model)
            traj = self.advance_held(law, cell, math.ceil(timeout / (10 * self.scn.dt)))
            if traj.exit_facet is None:
                continue
            entered = self.locate_after_exit(traj.exit_facet, cell)
            self.escape_count += 1
            self.log.event(self.t, "forced_exploration", cell=cell.id,
                           intended=nb, actual=entered.id,
                           actual_facet=int(traj.exit_facet))
            return True
        return False

    # ---------------- terminal phase ----------------

    def terminal_phase(self, cell: Box) -> None:
        scn = self.scn
        # identify the cell if needed, then start the quadratic program from
        # a state with real barrier margin
        if ((cell.id not in self.models and not self.ingress_and_identify(cell))
                or not self.gain_margin(cell, 0.2 * float(np.min(cell.sides)))):
            self.log.event(self.t, "terminal_escape", cell=cell.id)
            return
        model = self.models[cell.id]
        params = TerminalParams(alpha=scn.terminal_alpha, kappa=scn.terminal_kappa,
                                slack_weight=scn.terminal_slack_weight)
        self.log.event(self.t, "terminal_phase", cell=cell.id)
        period = 10 * scn.dt
        audits = []
        infeasible = False

        def law(x):
            nonlocal infeasible
            if float(np.linalg.norm(np.subtract(x, scn.x_target))) <= scn.r_stop:
                return None
            try:
                step = clf_cbf_control(model, x, scn.x_target, cell, self.pu, params)
            except SolverError:
                # no input meets the barrier rows from this state
                infeasible = True
                return None
            # the mission clock moves when the rollout ends
            audits.append({"t": self.t + len(audits) * period, "delta": step.delta,
                           "min_barrier": step.min_barrier,
                           "kkt_stationarity": step.kkt_stationarity,
                           "kkt_complementarity": step.kkt_complementarity})
            return step.u

        traj = self.advance_held(law, cell, math.ceil(scn.terminal_budget / period))
        if traj.exit_facet is not None:
            self.log.event(self.t, "terminal_escape", cell=cell.id,
                           facet=int(traj.exit_facet))
            return
        dist = float(np.linalg.norm(self.x - scn.x_target))
        self.log.status, kind = (
            ("failure:terminal_infeasible", "terminal_infeasible") if infeasible
            else ("success", "converged") if dist <= scn.r_stop
            else ("partial", "terminal_budget_exhausted"))
        self.log.event(self.t, kind, distance=dist)
        self.log.metrics["terminal_audits"] = audits


def run_mission(scn: Scenario) -> MissionLog:
    t_wall = time.perf_counter()
    STATS.reset()
    ms = _Mission(scn)
    log = ms.log
    log.event(0.0, "mission_start", scenario=scn.name or scn.system)
    stall = 0
    try:
        for it in range(scn.max_iters):
            if not ms.ws.contains(ms.x):
                # identification and the terminal phase leave escapes unlocated
                raise _WorkspaceExit(ms.cur_id)
            n_split = ms.refine()
            cur = ms.current_cell()
            tgt = ms.tree.locate(scn.x_target)
            if cur.id == tgt.id:
                ms.terminal_phase(cur)
                if log.status != "incomplete":
                    break
                continue
            if ms.retries[cur.id] > scn.retry_budget:
                log.status = "failure:retry_budget"
                log.event(ms.t, "retry_budget_exhausted", cell=cur.id)
                break
            ms.graph.rebuild(ms.tree)
            if cur.id not in ms.models and not ms.ingress_and_identify(cur):
                continue
            ms.last_model = ms.models[cur.id]
            n_resolved = ms.certify_current(cur)
            if cur.id not in ms.tree.leaves:
                continue  # current cell was split, replan on the new partition
            n_resolved += ms.predictive_pass()
            ms.graph.refresh_uncertain_weights(ms.tree.leaves)

            blocked: set = set()
            while True:
                path, cost = ms.graph.shortest_path(cur.id, tgt.id, blocked=blocked)
                if path is None:
                    break
                snap = ms.graph.snapshot()
                snap.update({"iteration": it, "t": ms.t, "current_cell": cur.id,
                             "path": path, "cost": cost,
                             "leaf_count": ms.tree.leaf_count()})
                log.snapshots.append(snap)
                edge = (cur.id, path[1])
                e = ms.graph.edges[edge]
                if e.cert is not None and not e.cert.polytope.contains(ms.x, tol=1e-7):
                    # a relaxed certificate holds on a subpolytope only, so
                    # pull the state toward the cell interior first; if it is
                    # still outside, the gains are extrapolated (the exit
                    # facet may then differ from the intended one)
                    if e.failures >= 2:
                        blocked.add(edge)
                        continue
                    ms.centering_maneuver(cur, 0.5)
                    if ms.current_cell().id != cur.id:
                        break
                if not ms.execute_edge(cur, path[1]):
                    blocked.add(edge)
                    continue
                # follow the certified prefix of the plan before replanning,
                # otherwise per-edge replans thrash as weights shift
                for a, b in zip(path[1:], path[2:]):
                    here = ms.current_cell()
                    e = ms.graph.edges[(a, b)]
                    if not (here.id == a and e.status == gr.CERTAIN
                            and e.cert.polytope.contains(ms.x, tol=1e-7)
                            and ms.execute_edge(here, b)):
                        break
                break
            if path is None:
                if not blocked:
                    if ms.forced_escape(cur):
                        continue
                    log.status = "failure:no_path"
                    log.event(ms.t, "no_path", cell=cur.id)
                    break
                ms.centering_maneuver(cur, 0.2)
            if path is not None or n_resolved > 0 or n_split > 0:
                stall = 0
            else:
                stall += 1
                if stall > scn.stall_limit:
                    log.status = "failure:stalled"
                    log.event(ms.t, "stalled", cell=cur.id)
                    break
        else:
            log.status = "failure:iteration_budget"
    except _WorkspaceExit as exit_:
        log.status = "failure:workspace_exit"
        log.event(ms.t, "workspace_exit", cell=exit_.cell)
    log.final_distance = float(np.linalg.norm(ms.x - scn.x_target))
    uniform = uniform_cell_count(scn.ws_lo, scn.ws_hi, scn.h_min)
    leafs = ms.tree.leaf_count()
    log.metrics.update({
        "leaf_count": leafs,
        "uniform_count": uniform,
        "reduction_ratio": 1.0 - leafs / uniform,
        "wall_time_s": time.perf_counter() - t_wall,
        "kernel_calls": STATS.kernel_calls,
        "kernel_systems": STATS.kernel_systems,
        "qp_calls": STATS.qp_calls,
        "simulated_time": ms.t,
        "retry_max": max(ms.retries.values(), default=0),
        "final_state": ms.x.tolist(),
        "partition": ms.tree.snapshot(),
    })
    log.event(ms.t, "mission_end", status=log.status,
              distance=log.final_distance)
    return log
