"""Local affine identification by excitation and least squares."""
import dataclasses

import numpy as np
import pytest

from reachplan.dynamics import TrueSystem, analytic_linearize, mecanum_system, unicycle_system
from reachplan.geometry import Box
from reachplan.sysid import ExcitationPlan, identify_affine


def _affine_system(A, B, c):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    c = np.asarray(c, dtype=float)
    return TrueSystem(n=A.shape[0], m=B.shape[1],
                      f=lambda x: A @ x + c, g=lambda x: B.copy())


def test_excitation_plan_shape():
    pu = Box(lo=[-5.0, -5.0], hi=[5.0, 5.0])
    plan = ExcitationPlan.default(pu, m=2, n=2)
    assert len(plan.inputs) == 2 + 2 + 2  # K = n + m + 2
    assert plan.amplitude == pytest.approx(0.5)  # 0.1 x half-width
    assert np.allclose(plan.inputs[0], 0.0)
    mags = sorted(np.linalg.norm(u) for u in plan.inputs[1:])
    assert mags[-1] == pytest.approx(plan.amplitude)


def test_exact_affine_recovery():
    rng = np.random.default_rng(8)
    pu = Box(lo=[-5.0, -5.0], hi=[5.0, 5.0])
    for _ in range(20):
        A = rng.uniform(-1, 1, (2, 2))
        B = rng.uniform(-1, 1, (2, 2)) + np.eye(2)
        c = rng.uniform(-1, 1, 2)
        s = _affine_system(A, B, c)
        x0 = rng.uniform(-1, 1, 2)
        plan = ExcitationPlan.default(pu, m=2, period=1e-3, n=2)
        model, _, _ = identify_affine(s, x0, plan)
        scale = max(np.abs(A).max(), np.abs(B).max(), np.abs(c).max())
        assert np.abs(model.A - A).max() <= 1e-3 * scale
        assert np.abs(model.B - B).max() <= 1e-3 * scale
        assert np.abs(model.c - c).max() <= 1e-3 * scale


def test_identified_model_close_to_linearization_on_mecanum():
    s = mecanum_system()
    pu = Box(lo=[-5.0, -5.0], hi=[5.0, 5.0])
    plan = ExcitationPlan.default(pu, m=2, period=1e-3, n=2)
    x0 = np.array([2.0, -1.0])
    model, _, _ = identify_affine(s, x0, plan)
    ref = analytic_linearize(s, x0)
    assert np.linalg.norm(model.B - ref.B, 2) <= 0.05
    # drift prediction at the linearization point is nearly exact
    assert np.linalg.norm(model.xdot(x0, np.zeros(2)) - s.xdot(x0, np.zeros(2))) <= 1e-2


def test_cell_escape_raised():
    # strong constant drift leaves a tiny cell during excitation
    s = _affine_system(np.zeros((2, 2)), np.eye(2), [100.0, 0.0])
    cell = Box(lo=[0.0, 0.0], hi=[0.01, 0.01])
    plan = ExcitationPlan.default(Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]), m=2,
                                  period=1e-3, n=2)
    model, state, elapsed = identify_affine(s, [0.005, 0.005], plan, cell=cell)
    assert model is None
    assert state.shape == (2,)
    assert 0 < elapsed < len(plan.inputs) * plan.period


def test_escape_returns_the_first_state_outside_the_cell():
    """The state returned on an escape is the first sampled one outside
    the cell: one period of drift from x0, and the excitation stops after
    that one period."""
    s = _affine_system(np.zeros((2, 2)), np.eye(2), [0.0, -50.0])
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 0.02])
    plan = ExcitationPlan.default(Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]), m=2,
                                  period=1e-3, n=2)
    model, state, elapsed = identify_affine(s, [0.5, 0.01], plan, cell=cell)
    assert model is None and not cell.contains(state)
    assert elapsed == plan.period
    assert state == pytest.approx([0.5, 0.01 - 0.05], abs=1e-9)


def test_state_drifts_and_is_recorded():
    s = _affine_system(np.zeros((2, 2)), np.eye(2), [1.0, 0.0])
    plan = ExcitationPlan.default(Box(lo=[-1.0, -1.0], hi=[1.0, 1.0]), m=2,
                                  period=1e-3, n=2)
    _, final_state, elapsed = identify_affine(s, [0.0, 0.0], plan)
    assert elapsed == len(plan.inputs) * plan.period
    # six samples of 1 ms with unit drift move x by about 6e-3
    assert final_state[0] == pytest.approx(6e-3, rel=0.2)


@pytest.mark.parametrize("maker", [mecanum_system, unicycle_system])
def test_identified_model_is_the_same_through_either_step(maker):
    """identify_affine fits the same model, bit for bit, whether the plant
    steps in closed form or through the generic RK4 over rhs."""
    s = maker()
    generic = dataclasses.replace(s, step=None)
    rng = np.random.default_rng(61)
    plan = ExcitationPlan.default(Box(lo=[-10.0] * s.m, hi=[10.0] * s.m), m=s.m, n=s.n)
    for _ in range(20):
        x0 = rng.uniform(-8.0, 8.0, s.n)
        (got, got_x, _), (want, want_x, _) = (identify_affine(s, x0, plan),
                                              identify_affine(generic, x0, plan))
        for field in ("A", "B", "c"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert np.array_equal(got_x, want_x)
