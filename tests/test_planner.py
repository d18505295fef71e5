"""Scenario plumbing and mission log bookkeeping."""
import hashlib
import json
import math
import sys

import numpy as np
import pytest

from reachplan import optim, planner
from reachplan.cli import _write_outputs
from reachplan.dynamics import Trajectory, analytic_linearize
from reachplan.geometry import box_to_polytope, facet_id
from reachplan.graph import IMPOSSIBLE, MAX_EDGE_FAILURES, replay
from reachplan.partition import uniform_cell_count
from reachplan.planner import MissionLog, _Mission, run_mission
from reachplan.reach import facet_reachable, relaxed_facet_reachable
from reachplan.scenario import Scenario, builtin_scenario
from reachplan.sysid import ExcitationPlan


def test_builtin_mecanum_parameters():
    scn = builtin_scenario("mecanum")
    assert scn.system == "mecanum"
    assert scn.ws_lo.tolist() == [-8.0, -8.0] and scn.ws_hi.tolist() == [8.0, 8.0]
    assert scn.pu_lo.tolist() == [-5.0, -5.0] and scn.pu_hi.tolist() == [5.0, 5.0]
    assert scn.L_df == 0.03 and scn.L_g == 0.03
    assert scn.h_min.tolist() == [1.0, 1.0]
    assert scn.C_u == 100.0 and scn.beta_u == 0.8
    assert not scn.underactuated
    assert uniform_cell_count(scn.ws_lo, scn.ws_hi, scn.h_min) == 256


def test_builtin_unicycle_parameters():
    scn = builtin_scenario("unicycle")
    assert scn.system == "unicycle"
    assert scn.ws_lo.tolist() == [-10.0, -10.0, -np.pi]
    assert scn.ws_hi.tolist() == [10.0, 10.0, np.pi]
    assert scn.h_min == pytest.approx([1.25, 1.25, np.pi / 4])
    assert scn.C_u == 10.0 and scn.beta_u == 1.0
    assert scn.theta_thre == pytest.approx(np.deg2rad(10.0))
    assert scn.underactuated
    assert uniform_cell_count(scn.ws_lo, scn.ws_hi, scn.h_min) == 16 * 16 * 8


def test_unknown_builtin_raises():
    with pytest.raises(ValueError):
        builtin_scenario("hovercraft")


def test_scenario_rejects_start_outside_workspace():
    scn = builtin_scenario("mecanum")
    d = scn.to_dict()
    d["x_init"] = [9.0, 0.0]
    with pytest.raises(ValueError):
        Scenario.from_dict(d)


def test_scenario_round_trip():
    scn = builtin_scenario("unicycle")
    d = scn.to_dict()
    # everything is JSON-serializable
    import json
    blob = json.dumps(d)
    scn2 = Scenario.from_dict(json.loads(blob))
    assert scn2.system == scn.system
    assert np.allclose(scn2.h_min, scn.h_min)
    assert np.allclose(scn2.x_target, scn.x_target)
    assert scn2.theta_thre == scn.theta_thre


def test_scenario_make_system_dimensions():
    mec = builtin_scenario("mecanum").make_system()
    assert (mec.n, mec.m) == (2, 2)
    uni = builtin_scenario("unicycle").make_system()
    assert (uni.n, uni.m) == (3, 2)


def test_mission_log_append_and_success():
    log = MissionLog()
    assert not log.success
    traj = Trajectory(
        t=np.array([0.0, 0.5, 1.0]),
        x=np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]),
        u=np.array([[1.0, 0.0], [1.0, 0.0]]),
        exit_facet=1,
    )
    log.append_traj(traj, t0=2.0, cell_id=7)
    assert log.traj_t == [2.0, 2.5, 3.0]
    assert log.traj_cell == [7, 7, 7]
    # the final sample reuses the last held input
    assert np.allclose(log.traj_u[-1], [1.0, 0.0])
    log.event(3.0, "arrived", cell=7)
    assert log.events[-1] == {"t": 3.0, "type": "arrived", "cell": 7}
    log.status = "success"
    assert log.success


def test_gain_margin_escape_enters_the_neighbour():
    """With no model yet the ingress control is zero, so from 1 cm inside
    a cell's low x facet the mecanum drift (about -4.5 per axis) carries
    the state out during the first rollout."""
    ms = _Mission(builtin_scenario("mecanum"))
    ms.refine()
    cell = ms.current_cell()
    ms.x = cell.lo + np.array([0.01, 0.5])
    assert not ms.gain_margin(cell, need=0.25)
    assert ms.retries[cell.id] == 1
    entered = ms.tree.leaves[ms.cur_id]
    assert entered.id != cell.id and entered.hi[0] == cell.lo[0]
    assert entered.contains(ms.x)
    assert ms.log.events[-1] == {"t": ms.t, "type": "ingress_escape",
                                 "cell": cell.id, "facet": facet_id(0, -1)}
    assert ms.log.traj_cell == [cell.id] * len(ms.log.traj_t)
    assert ms.log.traj_t[0] == 0.0 and ms.log.traj_t[-1] == ms.t
    assert 0.0 < ms.t < 5 * ms.scn.dt
    assert ms.x[0] == pytest.approx(cell.lo[0], abs=1e-8)


def _edge_across(ms, cell, axis, direction):
    """The neighbour of ``cell`` across its facet (axis, direction)."""
    return next(nb for nb in ms.graph.out[cell.id]
                if ms.graph.edges[(cell.id, nb)].facet == facet_id(axis, direction))


def test_unintended_exit_is_logged_and_charged_to_the_edge():
    """An edge to the -y neighbour carrying a certificate for the -x facet:
    the state leaves through -x, so the edge counts one failure and the log
    names the intended and the actual cells and facets."""
    ms = _Mission(builtin_scenario("mecanum"))
    ms.refine()
    ms.graph.rebuild(ms.tree)
    cell = ms.current_cell()
    nb = _edge_across(ms, cell, 1, -1)
    actual_fct = facet_id(0, -1)
    model = analytic_linearize(ms.sys, cell.center)
    e = ms.graph.edges[(cell.id, nb)]
    e.cert = facet_reachable(model, box_to_polytope(cell), [actual_fct], ms.pu)[0]
    assert e.cert is not None
    assert ms.execute_edge(cell, nb) is True
    assert e.failures == 1
    entered = ms.tree.leaves[ms.cur_id]
    assert entered.id != nb and entered.hi[0] == cell.lo[0]
    assert ms.log.events[-1] == {"t": ms.t, "type": "unintended_exit", "cell": cell.id,
                                 "intended": nb, "actual": entered.id,
                                 "intended_facet": facet_id(1, -1),
                                 "actual_facet": actual_fct}


def test_traversal_is_judged_by_the_cell_entered_at_the_crossing():
    """A certificate for the -x facet on the edge to the -x neighbour, with
    a 20 ms step so that the 20-step penetration rollout carries the state
    through that 1 m neighbour into the next cell: the crossing entered the
    intended cell, so the edge is traversed and charged no failure."""
    scn = builtin_scenario("mecanum")
    scn.dt = 0.02
    ms = _Mission(scn)
    ms.refine()
    ms.graph.rebuild(ms.tree)
    cell = ms.current_cell()
    nb = _edge_across(ms, cell, 0, -1)
    model = analytic_linearize(ms.sys, cell.center)
    e = ms.graph.edges[(cell.id, nb)]
    e.cert = facet_reachable(model, box_to_polytope(cell), [facet_id(0, -1)], ms.pu)[0]
    assert e.cert is not None
    assert ms.execute_edge(cell, nb) is True
    deeper = ms.tree.leaves[ms.cur_id]
    assert deeper.id != nb and deeper.hi[0] == ms.tree.leaves[nb].lo[0]
    assert e.failures == 0
    event = ms.log.events[-1]
    assert (event["type"], event["source"], event["target"]) == ("edge_traversed",
                                                                 cell.id, nb)


def test_degenerate_certificate_blocks_the_edge():
    """A relaxed heading-facet certificate on a truncated pyramid whose
    opposite facet is shrunk to 1e-9 has flat simplices that carry no
    affine law: the edge is blocked and left out of planning, keeps its
    certificate, and the failure is logged."""
    ms = _Mission(builtin_scenario("unicycle"))
    ms.refine()
    ms.graph.rebuild(ms.tree)
    cell = ms.current_cell()
    nb = _edge_across(ms, cell, 2, +1)
    model = analytic_linearize(ms.sys, cell.center)
    e = ms.graph.edges[(cell.id, nb)]
    e.cert = cert = relaxed_facet_reachable(model, cell, [facet_id(2, +1)], ms.pu,
                                            ms.scn.theta_thre, shrink=1e-9)[0]
    assert cert is not None and cert.kind == "relaxed"
    assert cert.polytope.contains(ms.x)
    t0 = ms.t
    assert ms.execute_edge(cell, nb) is False
    assert e.cert is cert and e.failures == MAX_EDGE_FAILURES
    assert ms.log.events[-1] == {"t": t0, "type": "degenerate_certificate",
                                 "cell": cell.id, "to": nb}
    assert ms.t == t0 and not ms.log.traj_t
    others = frozenset((cell.id, b) for b in ms.graph.out[cell.id] if b != nb)
    assert ms.graph.shortest_path(cell.id, nb, blocked=others) == (None, math.inf)


def test_forced_escape_pushes_through_a_soft_impossible_facet():
    """A unicycle cell with an identified model whose every out-edge is
    impossible, a mark that is no proof on the underactuated unicycle
    (a soft mark): forced_escape pushes through the +heading facet
    first (the heading rate is directly actuated), logs the crossing as a
    forced exploration and counts the escape, without a tableau LP."""
    ms = _Mission(builtin_scenario("unicycle"))
    ms.refine()
    ms.graph.rebuild(ms.tree)
    cell = ms.current_cell()
    ms.models[cell.id] = analytic_linearize(ms.sys, cell.center)
    for nb in ms.graph.out[cell.id]:
        ms.graph.mark_impossible(cell.id, nb)
    nb = _edge_across(ms, cell, 2, +1)
    lp_calls = optim.STATS.lp_calls
    assert ms.forced_escape(cell)
    assert ms.escape_count == 1 and optim.STATS.lp_calls == lp_calls
    entered = ms.tree.leaves[ms.cur_id]
    assert entered.id != cell.id and entered.contains(ms.x)
    assert ms.log.events[-1] == {"t": ms.t, "type": "forced_exploration", "cell": cell.id,
                                 "intended": nb, "actual": entered.id,
                                 "actual_facet": facet_id(2, +1)}
    assert 0.0 < ms.t and ms.log.traj_cell == [cell.id] * len(ms.log.traj_t)


def test_predictive_refutation_is_a_proof_on_the_mecanum(monkeypatch):
    """A predictive pass whose refutation rules out every facet asked marks
    the edges impossible. On the fully actuated mecanum such a mark is a
    proof, so forced_escape tries no crossing out of a refuted cell."""
    ms = _Mission(builtin_scenario("mecanum"))
    ms.refine()
    ms.graph.rebuild(ms.tree)
    cell = ms.current_cell()
    ms.models[cell.id] = analytic_linearize(ms.sys, cell.center)
    monkeypatch.setattr(planner, "predict_unreachable",
                        lambda questions, pu: [[True] * len(q[3]) for q in questions])
    assert ms.predictive_pass() > 0
    refuted = [a for (a, _), e in ms.graph.edges.items()
               if a != cell.id and e.status == IMPOSSIBLE]
    assert refuted and not ms.scn.underactuated
    src = ms.tree.leaves[refuted[0]]
    ms.models[src.id] = analytic_linearize(ms.sys, src.center)
    ms.x, ms.cur_id = src.center.copy(), src.id
    t0 = ms.t
    assert not ms.forced_escape(src)
    assert ms.t == t0 and ms.escape_count == 0


@pytest.mark.parametrize("plant", ["mecanum", "unicycle"])
def test_only_a_fully_actuated_mission_asks_predictive_questions(plant, monkeypatch):
    """The built-in unicycle mission succeeds without one predictive
    refutation, certification or deviation bound: an underactuated
    scenario runs no predictive pass. The built-in mecanum mission asks
    all three."""
    calls = []

    def counted(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    names = ("predict_unreachable", "predict_reachable", "cell_pair_bounds")
    for name in names:
        monkeypatch.setattr(planner, name, counted(name, getattr(planner, name)))
    assert run_mission(builtin_scenario(plant)).success
    assert set(calls) == (set(names) if plant == "mecanum" else set())


def _centering_mission():
    """A mecanum mission in its identified 1 m cell [0, 1]^2, where g is
    near I, started 0.2 m up-drift of the centre on each axis."""
    scn = builtin_scenario("mecanum")
    scn.x_init = np.array([0.7, 0.7])
    ms = _Mission(scn)
    ms.refine()
    cell = ms.current_cell()
    ms.models[cell.id] = analytic_linearize(ms.sys, cell.center)
    return ms, cell


def test_centering_pushes_toward_the_cell_centre():
    """One rollout of 20 ten-step QP periods keeps the state in the cell,
    brings it closer to the centre and logs the manoeuvre."""
    ms, cell = _centering_mission()
    start = np.linalg.norm(ms.x - cell.center)
    qp_calls = optim.STATS.qp_calls
    ms.centering_maneuver(cell, 0.2)
    assert optim.STATS.qp_calls - qp_calls == 20
    assert ms.t == pytest.approx(20 * 10 * ms.scn.dt, abs=1e-12)
    assert cell.contains(ms.x) and ms.current_cell().id == cell.id
    assert np.linalg.norm(ms.x - cell.center) < 0.5 * start
    assert ms.log.events[-1] == {"t": ms.t, "type": "centering", "cell": cell.id}
    assert ms.log.traj_cell == [cell.id] * len(ms.log.traj_t)
    assert ms.log.traj_t[-1] == ms.t and np.array_equal(ms.log.traj_x[-1], ms.x)


def test_centering_with_an_infeasible_qp_takes_no_step(monkeypatch):
    """A QP that raises SolverError on its first call ends the manoeuvre
    before any step: the clock and state stay and no row is logged."""
    ms, cell = _centering_mission()
    x0 = ms.x.copy()

    def infeasible(*args, **kwargs):
        raise optim.SolverError("no KKT-consistent active set found")

    monkeypatch.setattr(planner, "clf_cbf_control", infeasible)
    ms.centering_maneuver(cell, 0.2)
    assert ms.t == 0.0 and np.array_equal(ms.x, x0)
    assert not ms.log.traj_t and not ms.log.traj_u
    assert ms.log.events[-1] == {"t": 0.0, "type": "centering", "cell": cell.id}


@pytest.mark.parametrize("plant", ["mecanum", "unicycle"])
def test_builtin_mission_solves_no_tableau_lp(plant, monkeypatch):
    """A built-in mission solves no tableau LP: it makes no solve_lp call,
    wherever from, and STATS.lp_calls reads 0. Its vertex systems go to
    the kernel, whose calls and systems the log reports."""
    calls = []
    solve_lp = optim.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("reachplan") and getattr(module, "solve_lp", None) is solve_lp:
            monkeypatch.setattr(module, "solve_lp", counted)
    log = run_mission(builtin_scenario(plant))
    assert log.success
    assert optim.STATS.lp_calls == len(calls) == 0
    assert 0 < log.metrics["kernel_calls"] < log.metrics["kernel_systems"]


def test_predictive_pass_asks_each_question_kind_once(monkeypatch):
    """Every predictive pass of the built-in mecanum mission makes at most
    one predict_unreachable and one predict_reachable call, each carrying
    the questions of all its cells, and some pass asks several cells."""
    calls = []

    def counted(kind, fn):
        def wrapped(questions, pu):
            calls.append((kind, len(questions)))
            return fn(questions, pu)
        return wrapped

    monkeypatch.setattr(planner, "predict_unreachable",
                        counted("refute", planner.predict_unreachable))
    monkeypatch.setattr(planner, "predict_reachable",
                        counted("certify", planner.predict_reachable))
    passes = []
    predictive_pass = planner._Mission.predictive_pass

    def recorded(self):
        calls.clear()
        resolved = predictive_pass(self)
        passes.append(list(calls))
        return resolved

    monkeypatch.setattr(planner._Mission, "predictive_pass", recorded)
    assert run_mission(builtin_scenario("mecanum")).success
    assert passes
    for made in passes:
        kinds = [kind for kind, _ in made]
        assert kinds in ([], ["refute"], ["refute", "certify"])
    assert max(n for made in passes for _, n in made) > 1


def _record_certify_calls(monkeypatch):
    """The (function name, exit facets) of every exact or relaxed
    certification call the planner makes from now on."""
    asked = []

    def recorded(name, fn):
        def wrapped(model, cell, exits, *args):
            asked.append((name, list(exits)))
            return fn(model, cell, exits, *args)
        return wrapped

    for name in ("facet_reachable", "relaxed_facet_reachable"):
        monkeypatch.setattr(planner, name, recorded(name, getattr(planner, name)))
    return asked


def _pending_facets(ms, cell):
    """The distinct exit facets of the cell's uncertain out-edges without a
    certificate, in out-list order."""
    edges = [ms.graph.edges[(cell.id, nb)] for nb in ms.graph.out[cell.id]]
    return list(dict.fromkeys(e.facet for e in edges
                              if e.status == "uncertain" and e.cert is None))


@pytest.mark.parametrize("plant, name", [("mecanum", "facet_reachable"),
                                         ("unicycle", "relaxed_facet_reachable")])
def test_certify_current_asks_the_pending_facets_in_one_call(plant, name, monkeypatch):
    """Every certify_current call of a built-in mission makes one
    certification call for the distinct exit facets of the cell's uncertain
    edges without a certificate, in out-list order, or none when there are
    none; some call asks several facets."""
    asked = _record_certify_calls(monkeypatch)
    certify_current = planner._Mission.certify_current
    made = []

    def recorded(self, cell):
        want = _pending_facets(self, cell)
        asked.clear()
        resolved = certify_current(self, cell)
        made.append((want, list(asked)))
        return resolved

    monkeypatch.setattr(planner._Mission, "certify_current", recorded)
    assert run_mission(builtin_scenario(plant)).success
    assert made
    for want, got in made:
        assert got == ([(name, want)] if want else [])
    assert max(len(want) for want, _ in made) > 1


def test_first_refused_facet_splits_the_cell_after_the_edges_before_it(monkeypatch):
    """The unicycle cell [-10, -5] x [0, 5] x [-pi/2, 0] with the plant's
    linearization at its centre: one relaxed call asks all five distinct
    facets. The edges to the -y, +heading and -heading neighbours, first in
    out-list order, are certified and marked certain; the +y facet is
    refused, so the cell splits there and the edges after it stay
    unmarked."""
    ms = _Mission(builtin_scenario("unicycle"))
    ms.refine()
    ms.graph.rebuild(ms.tree)
    cell = ms.tree.locate(np.array([-7.5, 2.5, -0.7]))
    assert cell.lo.tolist() == [-10.0, 0.0, -np.pi / 2] and cell.hi.tolist() == [-5.0, 5.0, 0.0]
    ms.models[cell.id] = analytic_linearize(ms.sys, cell.center)
    edges = [ms.graph.edges[(cell.id, nb)] for nb in ms.graph.out[cell.id]]
    facets = [e.facet for e in edges]
    assert facets == [2, 5, 4, 3, 1, 1, 1, 1, 1]
    asked = _record_certify_calls(monkeypatch)
    assert ms.certify_current(cell) == 4
    assert asked == [("relaxed_facet_reachable", [2, 5, 4, 3, 1])]
    assert cell.id not in ms.tree.leaves
    assert ms.log.events[-1] == {"t": 0.0, "type": "cell_split", "cell": cell.id}
    for e in edges[:3]:
        assert e.status == "certain" and e.cert.kind == "relaxed"
    for e in edges[3:]:
        assert e.status == "uncertain" and e.cert is None


def test_edge_recreated_by_a_neighbours_split_gets_the_same_certificate(monkeypatch):
    """The mecanum cell [0, 2] x [4, 6] certifies its edge to the +y
    neighbour [0, 2] x [6, 8]. That neighbour splits, and both new edges
    across the +y facet are certified again, in one call that asks that
    facet once, with a certificate equal to the one before the split."""
    ms = _Mission(builtin_scenario("mecanum"))
    ms.refine()
    ms.graph.rebuild(ms.tree)
    cell = ms.tree.locate(np.array([1.0, 5.0]))
    assert cell.lo.tolist() == [0.0, 4.0] and cell.hi.tolist() == [2.0, 6.0]
    ms.models[cell.id] = analytic_linearize(ms.sys, cell.center)
    ms.certify_current(cell)
    nb = _edge_across(ms, cell, 1, +1)
    before = ms.graph.edges[(cell.id, nb)].cert
    assert before is not None
    assert ms.split_cell(ms.tree.leaves[nb])
    ms.graph.rebuild(ms.tree)
    new = [n for n in ms.graph.out[cell.id]
           if ms.graph.edges[(cell.id, n)].facet == facet_id(1, +1)]
    assert len(new) == 2 and nb not in new
    asked = _record_certify_calls(monkeypatch)
    ms.certify_current(cell)
    assert asked == [("facet_reachable", [facet_id(1, +1)])]
    for n in new:
        cert = ms.graph.edges[(cell.id, n)].cert
        assert cert is not before
        assert (cert.exit_facet, cert.kind, cert.margins, cert.bound, cert.t_est) == (
            before.exit_facet, before.kind, before.margins, before.bound, before.t_est)
        assert cert.controls.keys() == before.controls.keys()
        assert all(np.array_equal(cert.controls[j], before.controls[j]) for j in cert.controls)
        assert np.array_equal(cert.polytope.vertices, before.polytope.vertices)



@pytest.mark.parametrize("plant", ["mecanum", "unicycle"])
def test_pinned_decides_as_the_shared_rectangle_did(plant):
    """On random refinements of each built-in grid, ``pinned`` (the target
    is the cell's only neighbour across the exit facet) decides every
    edge as the rule it replaced: the product of the cell's sides across
    the facet is at most that of the shared rectangle, from max(lo) and
    min(hi), times (1 + 1e-9). Both verdicts occur."""
    ms = _Mission(builtin_scenario(plant))
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(25):
        cands = sorted((c for c in ms.tree.leaves.values() if ms.tree.splittable_axes(c)),
                       key=lambda c: c.id)
        ms.tree.split(cands[int(rng.integers(len(cands)))])
        ms.graph.rebuild(ms.tree)
        for (a, b), e in ms.graph.edges.items():
            cell, dst = ms.tree.leaves[a], ms.tree.leaves[b]
            shared = (np.minimum(cell.hi, dst.hi) - np.maximum(cell.lo, dst.lo)).tolist()
            sides = cell.sides.tolist()
            del shared[e.facet // 2], sides[e.facet // 2]
            rule = math.prod(sides) <= math.prod(shared) * (1 + 1e-9)
            assert ms.pinned(cell, e) == rule
            verdicts.add(rule)
    assert verdicts == {True, False}

def test_unicycle_runs_are_deterministic(tmp_path):
    """The built-in unicycle mission with a target 2.5 m from the start
    (about 0.2 s a run) gives the same trajectory bytes and edge statuses
    twice in one process, and both match their recorded sha256."""
    scn = builtin_scenario("unicycle")
    scn.x_target = np.array([-1.875, 0.625, -np.pi / 8])
    runs = [run_mission(scn) for _ in range(2)]
    assert runs[0].success
    csv = []
    for k, log in enumerate(runs):
        _write_outputs(str(tmp_path / str(k)), scn, log)
        csv.append((tmp_path / str(k) / "trajectory.csv").read_bytes())
    assert csv[0] == csv[1]
    assert hashlib.sha256(csv[0]).hexdigest() == (
        "fd7e26ac828027b8ac2ea3b99371c912a576ff330f2c39c1389639b43789a97b")

    def edge_statuses(log):
        return [[(e["source"], e["target"], e["status"]) for e in s["edges"]]
                for s in replay(log.snapshots)]

    statuses = edge_statuses(runs[0])
    assert statuses == edge_statuses(runs[1])
    assert hashlib.sha256(json.dumps(statuses).encode()).hexdigest() == (
        "ffd8232aed5fa965a9a5120c0a33444bd9a07a78168fc937a9f32eb0097396a8")


def test_prefix_edge_exit_ends_the_mission_with_one_event(monkeypatch):
    """An edge of the certified prefix that leaves the workspace ends the
    mission at once, with one workspace_exit event, even when the state
    rests exactly on the workspace boundary, where ws.contains holds. The
    exit is staged: the first prefix edge puts the state on the boundary
    and raises what locate_after_exit raises on a real exit."""
    execute_edge = planner._Mission.execute_edge
    refine = planner._Mission.refine
    calls = []     # per planning iteration, the outcomes so far

    def staged(self, cell, nb):
        if calls[-1] and calls[-1][-1] is True:
            self.x = self.ws.hi.copy()
            calls[-1].append("exit")
            raise planner._WorkspaceExit(cell.id)
        calls[-1].append(execute_edge(self, cell, nb))
        return calls[-1][-1]

    def counted(self):
        calls.append([])
        return refine(self)

    monkeypatch.setattr(planner._Mission, "execute_edge", staged)
    monkeypatch.setattr(planner._Mission, "refine", counted)
    log = run_mission(builtin_scenario("mecanum"))
    assert log.status == "failure:workspace_exit"
    assert calls[-1][-2:] == [True, "exit"]
    assert [e["type"] for e in log.events].count("workspace_exit") == 1
    assert [e["type"] for e in log.events[-2:]] == ["workspace_exit", "mission_end"]


def _event_types(log):
    return [e["type"] for e in log.events]


def test_forced_escape_out_of_the_workspace_ends_the_mission(monkeypatch):
    """A unicycle mission whose every edge out of the start cell is refuted
    (a soft mark on the unicycle) and whose forced escape turns at the full
    heading rate -10: from the heading -7pi/8 the escape leaves the
    workspace through theta = -pi, which is a workspace exit, not a missing
    path."""
    def refute_all(self, cell):
        edges = self.pending(cell.id, lambda e: e.cert is not None)
        for nb in edges:
            self.graph.mark_impossible(cell.id, nb)
        return len(edges)

    monkeypatch.setattr(planner._Mission, "certify_current", refute_all)
    monkeypatch.setattr(planner._Mission, "predictive_pass", lambda self: 0)
    monkeypatch.setattr(planner, "fastest_control",
                        lambda *args: np.array([0.0, -10.0]))
    scn = builtin_scenario("unicycle")
    scn.x_init = np.array([-4.375, 0.625, -7 * np.pi / 8])
    log = run_mission(scn)
    assert log.status == "failure:workspace_exit"
    types = _event_types(log)
    assert types.count("workspace_exit") == 1 and "no_path" not in types
    assert types[-2:] == ["workspace_exit", "mission_end"]
    assert log.metrics["final_state"][2] <= -np.pi


def test_ingress_out_of_the_workspace_ends_the_mission():
    """From 0.1 mm inside the unicycle's x1 = 10 facet, with no model yet,
    the ingress control is zero and the drift carries the state out of the
    workspace by less than ws.contains's tolerance. The first ingress
    escape ends the mission with a workspace exit from that cell."""
    scn = builtin_scenario("unicycle")
    scn.x_init = np.array([9.9999, 0.625, np.pi / 8])
    log = run_mission(scn)
    assert log.status == "failure:workspace_exit"
    types = _event_types(log)
    assert types.count("ingress_escape") == 1 and types.count("workspace_exit") == 1
    escape, exit_ = log.events[-3:-1]
    assert (escape["type"], exit_["type"]) == ("ingress_escape", "workspace_exit")
    assert escape["facet"] == facet_id(0, +1) and exit_["cell"] == escape["cell"]
    assert 10.0 < log.metrics["final_state"][0] < 10.0 + 1e-9


def test_centring_precedes_the_execution_of_an_outside_certificate(tmp_path):
    """The built-in unicycle from (-4.375, -5.625, pi/8) to (-4.375, 1.875,
    -5pi/8) meets first edges whose relaxed certificate does not hold the
    state, centres before executing them, and succeeds. Its trajectory is
    the one recorded before centring moved ahead of execution, and no plan
    repeats the one before it (same iteration and path, nothing changed)."""
    scn = builtin_scenario("unicycle")
    scn.x_init = np.array([-4.375, -5.625, np.pi / 8])
    scn.x_target = np.array([-4.375, 1.875, -5 * np.pi / 8])
    log = run_mission(scn)
    assert log.success
    _write_outputs(str(tmp_path), scn, log)
    assert hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest() == (
        "1254489044de956330c9b1ec6ebd0d5b8696740b9f4be41ee897532dc836b622")
    types = _event_types(log)
    assert types.count("centering") == 6 and types.count("unintended_exit") == 2
    assert len(log.snapshots) == 17
    for prev, snap in zip(log.snapshots, log.snapshots[1:]):
        assert ((snap["iteration"], snap["path"]) != (prev["iteration"], prev["path"])
                or snap["edges"] or snap["removed"])


def _mecanum_cell(side, x_init):
    """A built-in mecanum mission on a grid of ``side`` whose current cell,
    the one holding ``x_init``, is identified analytically."""
    scn = builtin_scenario("mecanum")
    scn.h_min = np.array([side, side])
    scn.x_init = np.array(x_init)
    ms = _Mission(scn)
    ms.refine()
    cell = ms.current_cell()
    assert cell.sides.tolist() == [side, side]
    ms.last_model = analytic_linearize(ms.sys, cell.center)
    plan = ExcitationPlan.default(ms.pu, 2, period=scn.ident_period, n=2)
    return ms, cell, plan


def _margin(ms, cell, x=None):
    x = ms.x if x is None else x
    return float(min(np.min(x - cell.lo), np.min(cell.hi - x)))


@pytest.mark.parametrize("side, x_init", [(0.25, [1.875, 2.625]), (1.0, [1.5, 2.5])])
@pytest.mark.parametrize("axis", [0, 1])
def test_ingress_reaches_the_margin_within_its_budget(side, x_init, axis):
    """From the middle of an entry facet that the drift carries the state
    away from, the ingress law reaches the margin identification needs
    within INGRESS_BUDGET control updates of tau = INGRESS_CHUNK steps."""
    ms, cell, plan = _mecanum_cell(side, x_init)
    ms.x = cell.center.copy()
    ms.x[axis] = cell.hi[axis]
    need = ms.ingress_need(cell, plan)
    # the quarter-side cap binds in the small cell, the travel rule in the large
    assert need == 0.25 * side if side < 1 else 0.1 < need < 0.25 * side
    assert ms.gain_margin(cell, need, planner.INGRESS_BUDGET)
    assert _margin(ms, cell) >= need
    tau = planner.INGRESS_CHUNK * ms.scn.dt
    assert 0.0 < ms.t <= planner.INGRESS_BUDGET * tau + 1e-12


def test_budgeted_ingress_identifies_from_the_margin_reached():
    """3 cm above the low y facet of the cell [1.75, 2] x [2.5, 2.75], a
    saturated u_2 = 5 beats the drift of about -4.6 by some 0.04 m/s: the
    budget runs out with the margin short of the need, and the cell is
    identified from the state reached."""
    ms, cell, plan = _mecanum_cell(0.25, [1.875, 2.625])
    assert cell.lo.tolist() == [1.75, 2.5]
    ms.x = np.array([cell.hi[0], cell.lo[1] + 0.03])
    need = ms.ingress_need(cell, plan)
    assert ms.ingress_and_identify(cell)
    reached = ms.log.traj_x[-1]
    tau = planner.INGRESS_CHUNK * ms.scn.dt
    assert ms.log.traj_t[-1] == pytest.approx(planner.INGRESS_BUDGET * tau, abs=1e-12)
    assert 0.03 < _margin(ms, cell, reached) < need
    assert ms.models[cell.id].linearization_point.tolist() == reached.tolist()
    assert ms.log.events[-1]["type"] == "identified"
