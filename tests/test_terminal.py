"""CLF-CBF terminal controller: barrier evaluation, QP contracts, convergence."""
import numpy as np
import pytest

from reachplan.dynamics import AffineModel
from reachplan.geometry import Box, box_to_polytope
from reachplan.optim import SolverError
from reachplan.terminal import (TerminalParams, barrier_rows, barrier_values,
                                clf_cbf_control)


def _integrator(n=2):
    return AffineModel(A=np.zeros((n, n)), B=np.eye(n), c=np.zeros(n),
                       linearization_point=np.zeros(n))


def test_barrier_values_oracle():
    cell = Box(lo=[-1.0, 0.0], hi=[2.0, 4.0])
    x = np.array([0.5, 3.0])
    # distances to the four facet planes, lower then upper per axis
    assert barrier_values(cell, x) == pytest.approx([1.5, 1.5, 3.0, 1.0])
    # negative outside
    assert barrier_values(cell, [-2.0, 3.0])[0] == pytest.approx(-1.0)
    # zero on a facet
    assert barrier_values(cell, [2.0, 3.0])[1] == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_barrier_rows_match_the_polytope_construction(n):
    """barrier_rows equals the rows built from the box's polytope form,
    n_iᵀB u <= kappa (b_i - n_iᵀx) - n_iᵀ(A x + c), row for row in
    facet-id order, on random models, cells and states in and out of the
    cell (== ignores the sign of an exact zero)."""
    rng = np.random.default_rng(27)
    for _ in range(200):
        model = AffineModel(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 2)),
                            c=rng.normal(size=n), linearization_point=np.zeros(n))
        lo = rng.uniform(-5.0, 5.0, n)
        cell = Box(lo=lo, hi=lo + rng.uniform(0.1, 3.0, n))
        x = rng.uniform(cell.lo - 0.5, cell.hi + 0.5)
        kappa = float(rng.uniform(0.1, 10.0))
        p = box_to_polytope(cell)
        drift = model.A @ x + model.c
        want_rows = np.array([p.normals[i] @ model.B for i in range(2 * n)])
        want_rhs = np.array([kappa * float(p.offsets[i] - p.normals[i] @ x)
                             - float(p.normals[i] @ drift) for i in range(2 * n)])
        rows, rhs = barrier_rows(model, cell, x.tolist(), kappa)
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(rhs, want_rhs)


def test_interior_closed_form():
    # single integrator far from every facet: only the Lyapunov row binds,
    # and the minimiser has the closed form of an equality-constrained QP
    m = _integrator()
    cell = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    pu = Box(lo=[-50.0, -50.0], hi=[50.0, 50.0])
    x = np.array([1.0, -2.0])
    params = TerminalParams(alpha=2.0, kappa=1.0, slack_weight=4.0)
    step = clf_cbf_control(m, x, np.zeros(2), cell, pu, params)
    V = 0.5 * float(x @ x)
    g = x.copy()                       # gradV @ B with P = I, B = I
    denom = float(g @ g) + 1.0 / params.slack_weight
    u_expect = -g * (params.alpha * V) / denom
    d_expect = (params.alpha * V / params.slack_weight) / denom
    assert step.u == pytest.approx(u_expect, abs=1e-7)
    assert step.delta == pytest.approx(d_expect, abs=1e-7)
    assert step.V == pytest.approx(V)
    assert step.kkt_stationarity <= 1e-6
    assert step.kkt_complementarity <= 1e-6


def test_barrier_rows_hold_and_box_respected():
    rng = np.random.default_rng(5)
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    pu = Box(lo=[-2.0, -2.0], hi=[2.0, 2.0])
    params = TerminalParams(alpha=1.0, kappa=5.0, slack_weight=1e6)
    for _ in range(50):
        A = rng.uniform(-0.5, 0.5, (2, 2))
        c = rng.uniform(-1.0, 1.0, 2)
        m = AffineModel(A=A, B=np.eye(2), c=c,
                        linearization_point=np.zeros(2))
        x = rng.uniform(0.05, 0.95, 2)
        step = clf_cbf_control(m, x, np.array([0.5, 0.5]), cell, pu, params)
        assert np.all(step.u >= pu.lo - 1e-9) and np.all(step.u <= pu.hi + 1e-9)
        xdot = A @ x + step.u + c
        h = barrier_values(cell, x)
        hdot = np.array([xdot[0], -xdot[0], xdot[1], -xdot[1]])
        assert np.all(hdot + params.kappa * h >= -1e-7)
        assert step.min_barrier == pytest.approx(float(np.min(h)))
        assert step.delta >= -1e-12
        assert step.kkt_stationarity <= 1e-6
        assert step.kkt_complementarity <= 1e-6


def test_drift_toward_facet_is_rejected():
    # strong drift at a point close to the upper x facet: the barrier row
    # forces the control to cancel the outward motion
    m = AffineModel(A=np.zeros((2, 2)), B=np.eye(2), c=np.array([3.0, 0.0]),
                    linearization_point=np.zeros(2))
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    pu = Box(lo=[-5.0, -5.0], hi=[5.0, 5.0])
    params = TerminalParams(alpha=1.0, kappa=2.0, slack_weight=1e6)
    x = np.array([0.99, 0.5])
    step = clf_cbf_control(m, x, np.array([0.2, 0.5]), cell, pu, params)
    # hdot = -(3 + u_x) must be >= -kappa h = -0.02
    assert 3.0 + step.u[0] <= 2.0 * 0.01 + 1e-7


def test_unreachable_barrier_rows_raise_solver_error():
    # the drift of test_drift_toward_facet_is_rejected with a unit input
    # box: keeping x inside needs u_x <= -2.98, so no control meets the
    # upper x barrier row and the QP itself reports the infeasibility
    m = AffineModel(A=np.zeros((2, 2)), B=np.eye(2), c=np.array([3.0, 0.0]),
                    linearization_point=np.zeros(2))
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    pu = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    params = TerminalParams(alpha=1.0, kappa=2.0, slack_weight=1e6)
    with pytest.raises(SolverError):
        clf_cbf_control(m, np.array([0.99, 0.5]), np.array([0.2, 0.5]), cell, pu, params)


def test_closed_loop_convergence_and_invariance():
    m = _integrator()
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    pu = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    params = TerminalParams(alpha=3.0, kappa=10.0, slack_weight=1e6)
    r_stop = 0.05
    target = np.array([0.3, 0.7])
    x = np.array([0.95, 0.05])
    dt = 1e-3
    min_barrier = np.inf
    for _ in range(5000):
        step = clf_cbf_control(m, x, target, cell, pu, params)
        min_barrier = min(min_barrier, step.min_barrier)
        x = x + dt * (m.A @ x + m.B @ step.u + m.c)
        if np.linalg.norm(x - target) < r_stop:
            break
    assert np.linalg.norm(x - target) < r_stop
    assert min_barrier >= -1e-9
