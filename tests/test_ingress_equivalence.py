"""The one-rollout ingress and terminal phase against the chunked loops
they replaced.

``_Mission.gain_margin`` once made one 5-step ``integrate`` call per
control update and measured the margin between calls. That loop is kept
here, as it was, as the reference. Under the same ingress law the single
rollout must pass through bit-identical states with the same controls,
toggle ``hold`` at the same chunk ends, and escape or stop at the same
step. Its log drops only the closing row of each chunk but the last,
which repeated the next chunk's opening state with the old control, and
its clock may differ by rounding, since it is summed once per rollout.

``_Mission.terminal_phase`` once made one 10-step ``integrate`` call per
QP. That loop is kept here too. The single rollout must end with the
same status and events after as many QPs, and drop the same closing rows.
Its states and clock agree to 1e-12, not exactly: each old 10-step call
shortened its last step by rounding (``min(dt, t_max - t)``).
"""
import numpy as np
import pytest

from reachplan.dynamics import AffineModel, analytic_linearize
from reachplan.geometry import facet_id
from reachplan.optim import STATS
from reachplan.planner import _Mission
from reachplan.scenario import builtin_scenario
from reachplan.terminal import TerminalParams, clf_cbf_control

# the creep law of the chunked loop: cancel the modeled drift and aim at
# the cell centre at min(1, |d|) m/s
def _creep_law(ms, cell):
    if ms.last_model is None:
        return lambda x: np.zeros(ms.pu.dim)
    m = ms.last_model

    def law(x):
        x = np.array(x)
        d = cell.center - x
        nd = float(np.linalg.norm(d))
        v_des = d / max(nd, 1e-9) * min(1.0, nd)
        return np.clip(m.B_pinv @ (v_des - (m.A @ x + m.c)), ms.pu.lo, ms.pu.hi)

    return law


def _margin(ms, cell):
    return float(min(np.min(ms.x - cell.lo), np.min(cell.hi - ms.x)))


def _gain_margin_chunked(ms, cell, need):
    """The chunked loop, with the law passed in and its hold toggles kept."""
    law = _creep_law(ms, cell)
    steps = 0
    hold = False
    toggles = []
    prev_margin = _margin(ms, cell)
    while prev_margin < need and steps < 4000:
        u = ms.last_u if hold else law(ms.x.tolist())
        traj = ms.advance(lambda _x: u, cell, 5 * ms.scn.dt, 5)
        steps += 1
        margin = _margin(ms, cell)
        if margin <= prev_margin + 1e-12:
            hold = not hold if ms.last_u is not None else False
            toggles.append(steps)
        prev_margin = margin
        if traj.exit_facet is not None:
            ms.retries[cell.id] += 1
            ms.locate_after_exit(traj.exit_facet, cell)
            ms.log.event(ms.t, "ingress_escape", cell=cell.id,
                         facet=int(traj.exit_facet))
            return False, toggles
    return True, toggles


def _mission(x_offset, model, last_u):
    """A mecanum mission in the 1 m cell [0, 1]^2, where g is near I."""
    scn = builtin_scenario("mecanum")
    scn.x_init = np.array([0.5, 0.5])
    ms = _Mission(scn)
    ms.refine()
    cell = ms.current_cell()
    ms.x = cell.lo + np.array(x_offset)
    ms.cur_id = cell.id
    ms.last_model = model
    ms.last_u = None if last_u is None else np.array(last_u)
    return ms, cell


def _rows(log):
    return [(t, x.tolist(), np.asarray(u).tolist(), c)
            for t, x, u, c in zip(log.traj_t, log.traj_x, log.traj_u, log.traj_cell)]


def _without_closing_rows(rows):
    """Drop each row that the next one repeats in clock and state."""
    return [r for r, nxt in zip(rows, rows[1:] + [None])
            if nxt is None or (r[0], r[1]) != (nxt[0], nxt[1])]


# A model without drift makes the law ask for too little against the
# plant's drift of about -4.5 per axis: the first chunk loses margin, the
# loop toggles to the held crossing control (+5, +5) and climbs from there.
NO_DRIFT = AffineModel(A=np.zeros((2, 2)), B=np.eye(2), c=np.zeros(2),
                       linearization_point=np.zeros(2))


@pytest.mark.parametrize("x_offset, model, last_u, need, outcome", [
    ([0.5, 0.05], NO_DRIFT, [5.0, 5.0], 0.1, "hold"),
    ([0.05, 0.5], None, None, 0.25, "escape"),
    ([0.5, 0.3], None, None, 0.25, "met"),
], ids=["hold", "escape", "met"])
def test_one_rollout_matches_the_chunked_loop(x_offset, model, last_u, need, outcome,
                                              monkeypatch):
    ref, cell = _mission(x_offset, model, last_u)
    ok_ref, toggles = _gain_margin_chunked(ref, cell, need)
    ms, cell = _mission(x_offset, model, last_u)
    monkeypatch.setattr(ms, "_ingress_law", lambda c: _creep_law(ms, c))
    assert ms.gain_margin(cell, need) == ok_ref == (outcome != "escape")
    if outcome == "hold":
        assert toggles == [1]
    if outcome == "escape":
        assert ms.retries[cell.id] == ref.retries[cell.id] == 1
        assert ms.log.events[-1]["facet"] == facet_id(0, -1)
    assert ms.x.tolist() == ref.x.tolist()
    assert ms.cur_id == ref.cur_id
    assert ms.t == pytest.approx(ref.t, abs=1e-12, rel=0)
    assert [(e["type"], e.get("facet")) for e in ms.log.events] == \
        [(e["type"], e.get("facet")) for e in ref.log.events]
    old, new = _without_closing_rows(_rows(ref.log)), _rows(ms.log)
    assert [r[1:] for r in new] == [r[1:] for r in old]
    assert np.max(np.abs(np.subtract([r[0] for r in new], [r[0] for r in old])),
                  initial=0.0) <= 1e-12
    if outcome == "met":
        assert ref.t == ms.t == 0.0 and not ms.log.traj_t
    else:
        assert len(new) > 3 and len(old) < len(_rows(ref.log))


def _terminal_chunked(ms, cell):
    """The chunked terminal loop, from the state the margin push left."""
    scn = ms.scn
    model = ms.models[cell.id]
    params = TerminalParams(alpha=scn.terminal_alpha, kappa=scn.terminal_kappa,
                            slack_weight=scn.terminal_slack_weight)
    ms.log.event(ms.t, "terminal_phase", cell=cell.id)
    period = 10 * scn.dt
    t_phase = 0.0
    audits = []
    while t_phase < scn.terminal_budget:
        dist = float(np.linalg.norm(ms.x - scn.x_target))
        if dist <= scn.r_stop:
            ms.log.status = "success"
            ms.log.final_distance = dist
            ms.log.event(ms.t, "converged", distance=dist)
            ms.log.metrics["terminal_audits"] = audits
            return
        step = clf_cbf_control(model, ms.x, scn.x_target, cell, ms.pu, params)
        audits.append({"t": ms.t, "delta": step.delta,
                       "min_barrier": step.min_barrier,
                       "kkt_stationarity": step.kkt_stationarity,
                       "kkt_complementarity": step.kkt_complementarity})
        traj = ms.advance(lambda _x: step.u, cell, period, scn.record_stride)
        t_phase += traj.t[-1]
        if traj.exit_facet is not None:
            ms.log.event(ms.t, "terminal_escape", cell=cell.id,
                         facet=int(traj.exit_facet))
            return
    dist = float(np.linalg.norm(ms.x - scn.x_target))
    ms.log.status = "partial"
    ms.log.final_distance = dist
    ms.log.event(ms.t, "terminal_budget_exhausted", distance=dist)
    ms.log.metrics["terminal_audits"] = audits


def _terminal_mission(x_init, model, budget):
    """The built-in mecanum mission started in its target cell [-1, 0]^2,
    far enough inside that the margin push before the QP takes no step."""
    scn = builtin_scenario("mecanum")
    scn.x_init = np.array(x_init)
    scn.terminal_budget = budget
    ms = _Mission(scn)
    ms.refine()
    cell = ms.current_cell()
    ms.models[cell.id] = model or analytic_linearize(ms.sys, cell.center)
    return ms, cell


def _run_counting_qps(fn, ms, cell):
    STATS.reset()
    fn(ms, cell)
    return STATS.qp_calls


# From the target cell's upper left the QP converges after 2.76 s, so a
# 0.095 s budget ends the phase after 10 periods. (At a budget of whole
# periods the old loop's summed clock may fall short of it by rounding and
# run one period more.) Down-drift of the target a model
# without drift asks for too little input, and the plant's drift of about
# -4.5 per axis carries the state out through the cell's low facets.
@pytest.mark.parametrize("x_init, model, budget, status", [
    ([-0.75, -0.25], None, 40.0, "success"),
    ([-0.75, -0.25], None, 0.095, "partial"),
    ([-0.7, -0.7], NO_DRIFT, 40.0, "incomplete"),
], ids=["converges", "budget", "escape"])
def test_terminal_rollout_matches_the_chunked_loop(x_init, model, budget, status):
    ref, cell = _terminal_mission(x_init, model, budget)
    qp_ref = _run_counting_qps(_terminal_chunked, ref, cell)
    ms, cell = _terminal_mission(x_init, model, budget)
    qp = _run_counting_qps(_Mission.terminal_phase, ms, cell)
    assert ms.log.status == ref.log.status == status
    assert [(e["type"], e.get("facet")) for e in ms.log.events] == \
        [(e["type"], e.get("facet")) for e in ref.log.events]
    assert np.max(np.abs(np.subtract([e["t"] for e in ms.log.events],
                                     [e["t"] for e in ref.log.events]))) <= 1e-12
    assert qp == qp_ref > 1
    audits = ms.log.metrics.get("terminal_audits")
    if status == "incomplete":
        assert audits is None and ref.log.metrics.get("terminal_audits") is None
        assert ms.log.events[-1]["facet"] == ref.log.events[-1]["facet"]
    else:
        old = ref.log.metrics["terminal_audits"]
        assert len(audits) == len(old) == qp
        assert max(abs(a["t"] - b["t"]) for a, b in zip(audits, old)) <= 1e-12
        assert ms.log.events[-1]["distance"] == pytest.approx(
            ref.log.events[-1]["distance"], abs=1e-12, rel=0)
    assert np.max(np.abs(ms.x - ref.x)) <= 1e-12
    assert ms.t == pytest.approx(ref.t, abs=1e-12, rel=0)
    old, new = _without_closing_rows(_rows(ref.log)), _rows(ms.log)
    assert len(new) == len(old) < len(_rows(ref.log))
    assert [r[3] for r in new] == [r[3] for r in old]
    for a, b in zip(new, old):
        assert abs(a[0] - b[0]) <= 1e-12
        assert np.max(np.abs(np.subtract(a[1], b[1]))) <= 1e-12
