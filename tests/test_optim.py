"""LP and QP solvers checked against scipy oracles and closed forms."""
import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from reachplan.optim import (DELTA_STRICT, LinearFeasibilityProblem, SolverError,
                             feasibility_residual, linear_feasible, maximin_lp,
                             solve_lp, solve_qp)


def _random_lp(rng, n, k):
    c = rng.standard_normal(n)
    A = rng.standard_normal((k, n))
    b = rng.standard_normal(k) * 2.0
    lo = rng.uniform(-3, -1, n)
    hi = rng.uniform(1, 3, n)
    return c, A, b, lo, hi


def test_solve_lp_matches_scipy_on_random_instances():
    rng = np.random.default_rng(0)
    n_optimal = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, 7))
        c, A, b, lo, hi = _random_lp(rng, n, k)
        status, x, obj = solve_lp(c, A, b, lo, hi)
        ref = linprog(c, A_ub=A, b_ub=b, bounds=list(zip(lo, hi)),
                      method="highs")
        if status == "optimal":
            n_optimal += 1
            assert ref.status == 0
            assert obj == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(A @ x <= b + 1e-8) if k else True
            assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
        else:
            assert ref.status == 2  # both infeasible
    assert n_optimal > 100  # the generator must exercise the optimal branch


def test_solve_lp_closed_form():
    # min -x - y over the unit box cut by x + y <= 1: optimum 1 at the edge
    status, x, obj = solve_lp([-1.0, -1.0], [[1.0, 1.0]], [1.0],
                              [0.0, 0.0], [1.0, 1.0])
    assert status == "optimal"
    assert obj == pytest.approx(-1.0)
    assert x[0] + x[1] == pytest.approx(1.0)


def test_solve_lp_infeasible():
    status, x, obj = solve_lp([1.0], [[1.0], [-1.0]], [-2.0, -2.0], [-5.0], [5.0])
    assert status == "infeasible" and x is None


def test_linear_feasible_residual_contract():
    rng = np.random.default_rng(1)
    n_feas = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        A_le = rng.standard_normal((int(rng.integers(0, 4)), n))
        b_le = rng.standard_normal(A_le.shape[0])
        A_st = rng.standard_normal((int(rng.integers(1, 3)), n))
        b_st = rng.standard_normal(A_st.shape[0]) * 0.5
        p = LinearFeasibilityProblem(A_le=A_le, b_le=b_le, A_ge_strict=A_st,
                                     b_ge_strict=b_st,
                                     lo=np.full(n, -2.0), hi=np.full(n, 2.0))
        u = linear_feasible(p)
        if u is None:
            continue
        n_feas += 1
        assert feasibility_residual(p, u) <= 1e-7
    assert n_feas > 30


def test_maximin_lp_against_scipy_epigraph():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, K = 3, 4
        rows = rng.standard_normal((K, n))
        rhs = rng.standard_normal(K)
        lo = np.full(n, -1.0)
        hi = np.full(n, 1.0)
        t, z = maximin_lp(rows, rhs, None, None, lo, hi)
        # oracle: max t s.t. rows z - rhs >= t over the box
        A = np.hstack([-rows, np.ones((K, 1))])
        c = np.zeros(n + 1)
        c[-1] = -1.0
        ref = linprog(c, A_ub=A, b_ub=-rhs,
                      bounds=[(-1, 1)] * n + [(None, None)], method="highs")
        assert ref.status == 0
        assert t == pytest.approx(-ref.fun, abs=1e-7)
        assert float(np.min(rows @ z - rhs)) == pytest.approx(t, abs=1e-7)


def test_solve_qp_projection_closed_form():
    # min ||z||^2 s.t. a^T z <= b with b < 0: optimum is the projection
    # of the origin onto the halfspace boundary, z* = a b / ||a||^2
    a = np.array([1.0, 2.0])
    b = -2.0
    res = solve_qp(2 * np.eye(2), np.zeros(2), a.reshape(1, -1), np.array([b]))
    assert np.allclose(res.z, a * b / (a @ a), atol=1e-10)
    assert res.kkt_stationarity <= 1e-9
    assert res.kkt_complementarity <= 1e-9


def test_solve_qp_interior_optimum():
    H = np.diag([2.0, 4.0])
    q = np.array([-2.0, -4.0])
    # unconstrained optimum (1, 1) satisfies the loose constraint
    res = solve_qp(H, q, np.array([[1.0, 1.0]]), np.array([10.0]))
    assert np.allclose(res.z, [1.0, 1.0], atol=1e-10)
    assert res.active == []


def test_solve_qp_against_scipy_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        K = int(rng.integers(1, 2 * n + 2))
        M = rng.standard_normal((n, n))
        H = M @ M.T + np.eye(n)
        q = rng.standard_normal(n)
        G = rng.standard_normal((K, n))
        h = rng.uniform(0.5, 2.0, K)  # origin strictly feasible
        res = solve_qp(H, q, G, h)
        obj = lambda z: 0.5 * z @ H @ z + q @ z
        ref = minimize(obj, np.zeros(n), jac=lambda z: H @ z + q,
                       constraints=[{"type": "ineq",
                                     "fun": lambda z: h - G @ z}],
                       method="SLSQP",
                       options={"ftol": 1e-12, "maxiter": 200})
        assert obj(res.z) <= ref.fun + 1e-7
        assert np.max(G @ res.z - h) <= 1e-7
        assert res.kkt_stationarity <= 1e-6


def test_solve_qp_infeasible_raises():
    G = np.array([[1.0], [-1.0]])
    h = np.array([-1.0, -1.0])  # z <= -1 and z >= 1
    with pytest.raises(SolverError):
        solve_qp(np.eye(1) * 2, np.zeros(1), G, h)


def test_delta_strict_enforced():
    p = LinearFeasibilityProblem(
        A_le=np.zeros((0, 1)), b_le=np.zeros(0),
        A_ge_strict=np.array([[1.0]]), b_ge_strict=np.array([0.0]),
        lo=np.array([-1.0]), hi=np.array([1.0]),
    )
    u = linear_feasible(p)
    assert u is not None and u[0] >= DELTA_STRICT - 1e-12
