"""True systems, analytic linearization, RK4 integration, crossing detection."""
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from reachplan.dynamics import (CLAMP_TOL, AffineModel, TrueSystem, _clamp, _rk4,
                                analytic_linearize, integrate, mecanum_system,
                                unicycle_system)
from reachplan.geometry import Box, facet_id


def _fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    n = len(f(x))
    J = np.zeros((n, x.size))
    for k in range(x.size):
        e = np.zeros(x.size)
        e[k] = h
        J[:, k] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
    return J


@pytest.mark.parametrize("maker", [mecanum_system, unicycle_system])
def test_drift_jacobian_matches_finite_differences(maker):
    s = maker()
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = rng.uniform(-3, 3, s.n)
        assert np.allclose(s.df(x), _fd_jacobian(s.f, x), atol=1e-6)


@pytest.mark.parametrize("maker", [mecanum_system, unicycle_system])
def test_analytic_linearize_is_first_order(maker):
    s = maker()
    rng = np.random.default_rng(23)
    for _ in range(10):
        xe = rng.uniform(-2, 2, s.n)
        u = rng.uniform(-1, 1, s.m)
        model = analytic_linearize(s, xe)
        # exact at the linearization point
        assert np.allclose(model.xdot(xe, u), s.xdot(xe, u), atol=1e-12)
        # drift error is second order nearby (the input matrix is frozen at
        # xe, so compare with zero input)
        d = 1e-4 * rng.standard_normal(s.n)
        err = np.linalg.norm(model.xdot(xe + d, np.zeros(s.m))
                             - s.xdot(xe + d, np.zeros(s.m)))
        assert err < 10 * np.linalg.norm(d) ** 2 + 1e-12


def test_unicycle_control_structure():
    s = unicycle_system()
    g = np.asarray(s.g([0.0, 0.0, np.pi / 3]))
    assert np.allclose(g[:, 0], [np.cos(np.pi / 3), np.sin(np.pi / 3), 0.0])
    assert np.allclose(g[:, 1], [0.0, 0.0, 1.0])


# The plant formulas as numpy expressions: the built-in models evaluate
# them on Python floats, which must give the same bits.
def _mecanum_f_np(x):
    return np.array([-0.5 * np.sin(0.1 * x[0] - 0.2 * x[1]) - 4.5,
                     -0.2 * np.sin(0.3 * x[0] - 0.1 * x[1]) - 4.5])


def _mecanum_g_np(x):
    return np.array([[1.0 + 0.02 * x[0], 0.02 * x[1]],
                     [-0.02 * x[0], 1.0 - 0.02 * x[1]]])


def _unicycle_f_np(x):
    dv = 0.03 * np.cos(0.01 * x[0] + 0.02 * x[1])
    dw = 0.03 * np.sin(-0.02 * x[0] + 0.01 * x[1])
    return np.array([np.cos(x[2]) * dv, np.sin(x[2]) * dv, dw])


def _unicycle_g_np(x):
    return np.array([[np.cos(x[2]), 0.0], [np.sin(x[2]), 0.0], [0.0, 1.0]])


def _xdot_rounded(f, g, u):
    """f + g u for m = 2 in Python floats: each product and sum rounded on
    its own, with no fused multiply-add, whatever BLAS numpy loads."""
    return [float(fi) + (float(row[0]) * u[0] + float(row[1]) * u[1])
            for fi, row in zip(f, g)]


def _xdot_exact(f, g, u):
    """f + g u of the float inputs in exact rational arithmetic."""
    return [Fraction(float(fi)) + sum(Fraction(float(gij)) * Fraction(uj)
                                      for gij, uj in zip(row, u))
            for fi, row in zip(f, g)]


@pytest.mark.parametrize("maker, f_np, g_np", [
    (mecanum_system, _mecanum_f_np, _mecanum_g_np),
    (unicycle_system, _unicycle_f_np, _unicycle_g_np),
])
def test_plant_matches_numpy_formulas_bit_for_bit(maker, f_np, g_np):
    """f and g give the bits of their numpy formulas; xdot gives the bits of
    the rounded scalar sum, and lies within 2 ulp of the exact sum (ulp of
    its largest term: f and g u may cancel)."""
    s = maker()
    rng = np.random.default_rng(29)
    for _ in range(500):
        x = rng.uniform(-10, 10, s.n)
        u = rng.uniform(-3, 3, s.m)
        for xs in (x, x.tolist()):
            for got, want in ((s.f(xs), f_np(x)), (s.g(xs), g_np(x))):
                got = np.asarray(got)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert (got == want).all()
        f, g = f_np(x), g_np(x)
        ref = _xdot_rounded(f, g, u.tolist())
        exact = _xdot_exact(f, g, u.tolist())
        for got in (s.xdot(x, u), s.xdot(x.tolist(), u.tolist()),
                    np.array(s.rhs(x.tolist(), u.tolist()))):
            assert got.dtype == np.float64 and got.shape == (s.n,)
            assert got.tolist() == ref
            for i in range(s.n):
                scale = max([abs(f[i])] + [abs(gij * uj) for gij, uj in zip(g[i], u)])
                assert abs(Fraction(got[i]) - exact[i]) <= 2 * Fraction(math.ulp(scale))
    # integer lists are states too
    ints = list(range(1, s.n + 1))
    assert (np.asarray(s.f(ints)) == f_np(np.asarray(ints, dtype=float))).all()


def _bits(v):
    return [float(a).hex() for a in v]


@pytest.mark.parametrize("maker", [mecanum_system, unicycle_system])
def test_plant_step_matches_generic_rk4_bit_for_bit(maker):
    """A built-in plant's closed-form step reaches the bits of the generic
    RK4 over rhs, signed zeros included: random states (some coordinates
    +-0), zero and mixed-sign controls, the rollout step lengths, the
    crossing bisection's fractions of a step and identify_affine's T/10."""
    s = maker()
    rng = np.random.default_rng(53)
    checked = 0
    for _ in range(1500):
        x = rng.uniform(-10, 10, s.n).tolist()
        if rng.random() < 0.2:
            x[rng.integers(s.n)] = float(rng.choice([0.0, -0.0]))
        a, b = rng.uniform(0, 10, 2).tolist()
        controls = [[0.0, 0.0], [-0.0, -0.0], [a, -b], [-a, b], [0.0, -b], [-0.0, a],
                    rng.uniform(-10, 10, 2).tolist()]
        h = float(rng.choice([1e-3, 4e-3, 1e-2]))
        k = int(rng.integers(1, 30))
        steps = [h, 1e-4, h / 10, h * int(rng.integers(1, 2 ** k)) / 2 ** k]
        for u in controls:
            for dt in steps:
                want = _rk4(lambda z: s.rhs(z, u), x, dt)
                assert _bits(s.step(x, u, dt)) == _bits(want), (x, u, dt)
                checked += 1
    assert checked == 1500 * 7 * 4


@pytest.mark.parametrize("maker", [mecanum_system, unicycle_system])
def test_rollout_is_the_same_through_either_step(maker):
    """integrate gives the same samples, crossing and exit time whether the
    plant steps in closed form or through the generic RK4."""
    s = maker()
    generic = dataclasses.replace(s, step=None)
    rng = np.random.default_rng(59)
    pu = Box(lo=[-10.0] * s.m, hi=[10.0] * s.m)
    exits = 0
    for _ in range(20):
        x0 = rng.uniform(-6.0, 6.0, s.n)
        cell = Box(lo=x0 - rng.uniform(0.02, 0.5, s.n), hi=x0 + rng.uniform(0.02, 0.5, s.n))
        K = rng.uniform(-2.0, 2.0, (s.m, s.n))
        k0 = rng.uniform(-12.0, 12.0, s.m)
        ctrl = lambda x: K @ np.asarray(x) + k0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got, want = (integrate(p, ctrl, x0, cell, dt=4e-3, t_max=0.3, pu=pu, record_stride=3)
                         for p in (s, generic))
        for field in ("t", "x", "u"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert (got.exit_facet, got.exit_time, got.clamp_warnings) == \
            (want.exit_facet, want.exit_time, want.clamp_warnings)
        exits += got.exit_facet is not None
    assert exits >= 5


def test_clamp_to_box():
    """integrate's clamp to the input box [-1, 1]²."""
    u, clamped = _clamp([0.5, -2.0], [-1.0, -1.0], [1.0, 1.0])
    assert clamped and np.allclose(u, [0.5, -1.0])
    u, clamped = _clamp([0.1, 0.2], [-1.0, -1.0], [1.0, 1.0])
    assert not clamped


def test_clamp_below_tolerance_is_applied_but_not_flagged():
    """An excess of 1e-13 (interpolation rounding) is clamped silently; one
    just above CLAMP_TOL is flagged."""
    u, clamped = _clamp([1.0 + 1e-13, -1.0 - 1e-13], [-1.0, -1.0], [1.0, 1.0])
    assert not clamped and u == [1.0, -1.0]
    u, clamped = _clamp([0.0, -1.0 - 2 * CLAMP_TOL], [-1.0, -1.0], [1.0, 1.0])
    assert clamped and u == [0.0, -1.0]


def _constant_field(v):
    v = np.asarray(v, dtype=float)
    return TrueSystem(n=v.size, m=v.size,
                      f=lambda x: v.copy(),
                      g=lambda x: np.zeros((v.size, v.size)))


def test_integrate_exit_time_exact_for_constant_flow():
    # dx/dt = (1, 0): from (0.2, 0.5) the +x facet of the unit box is hit
    # at t = 0.8 exactly
    s = _constant_field([1.0, 0.0])
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    traj = integrate(s, lambda x: np.zeros(2), [0.2, 0.5], cell, dt=1e-2, t_max=5.0)
    assert traj.exit_facet == facet_id(0, +1)
    assert traj.exit_time == pytest.approx(0.8, abs=1e-8)
    assert traj.final_state[0] == pytest.approx(1.0, abs=1e-8)


def test_integrate_timeout_returns_no_exit():
    s = _constant_field([0.0, 0.0])
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    traj = integrate(s, lambda x: np.zeros(2), [0.5, 0.5], cell, dt=1e-2, t_max=0.1)
    assert traj.exit_facet is None
    assert traj.t[-1] == pytest.approx(0.1)


def test_integrate_ends_where_the_control_returns_none():
    # dx/dt = u = 1 for 7 steps, then ctrl returns None: the state reached
    # is recorded although the 7th step is no record_stride sample
    s = TrueSystem(n=1, m=1, f=lambda x: [0.0], g=lambda x: [[1.0]])
    cell = Box(lo=[-1.0], hi=[1.0])
    calls = []

    def ctrl(x):
        calls.append(x)
        return None if len(calls) > 7 else [1.0]

    traj = integrate(s, ctrl, [0.0], cell, dt=0.125, t_max=5.0, record_stride=5)
    assert len(calls) == 8 and traj.exit_facet is None
    assert traj.t.tolist() == [0.0, 0.625, 0.875]
    assert traj.x[:, 0].tolist() == [0.0, 0.625, 0.875]
    assert traj.u.tolist() == [[1.0], [1.0]]
    # a rollout ended before its first step holds only the start
    traj = integrate(s, lambda x: None, [0.5], cell, dt=0.125, t_max=5.0)
    assert traj.t.tolist() == [0.0] and traj.x.tolist() == [[0.5]] and traj.u.size == 0


def test_integrate_rejects_outside_start():
    s = _constant_field([1.0, 0.0])
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    with pytest.raises(ValueError):
        integrate(s, lambda x: np.zeros(2), [2.0, 0.5], cell, dt=1e-2, t_max=1.0)


def test_rk4_accuracy_against_matrix_exponential():
    A = np.array([[0.0, 1.0], [-2.0, -0.5]])
    s = TrueSystem(n=2, m=2, f=lambda x: A @ x, g=lambda x: np.zeros((2, 2)))
    cell = Box(lo=[-10.0, -10.0], hi=[10.0, 10.0])
    x0 = np.array([1.0, 0.0])
    traj = integrate(s, lambda x: np.zeros(2), x0, cell, dt=1e-3, t_max=2.0)
    exact = expm(A * traj.t[-1]) @ x0
    assert np.allclose(traj.final_state, exact, atol=1e-9)


def test_integrate_control_clamping_counted():
    s = TrueSystem(n=1, m=1, f=lambda x: np.zeros(1),
                   g=lambda x: np.eye(1))
    cell = Box(lo=[-1.0], hi=[1.0])
    pu = Box(lo=[-0.5], hi=[0.5])
    with pytest.warns(UserWarning):
        traj = integrate(s, lambda x: np.array([2.0]), [0.0], cell,
                         dt=1e-2, t_max=0.05, pu=pu)
    assert traj.clamp_warnings == 5
    # effective input was clamped to 0.5
    assert traj.final_state[0] == pytest.approx(0.025)


def test_clamped_rollout_that_crosses_a_facet_warns():
    # u = 2 clamped to 0.5: from 0.9025 the +x facet is reached at
    # t = 0.195, inside the 20th step
    s = TrueSystem(n=1, m=1, f=lambda x: np.zeros(1), g=lambda x: np.eye(1))
    cell = Box(lo=[-1.0], hi=[1.0])
    pu = Box(lo=[-0.5], hi=[0.5])
    with pytest.warns(UserWarning, match="clamped to input box on 20 steps"):
        traj = integrate(s, lambda x: np.array([2.0]), [0.9025], cell,
                         dt=1e-2, t_max=1.0, pu=pu)
    assert traj.exit_facet == facet_id(0, +1)
    assert traj.exit_time == pytest.approx(0.195, abs=1e-8)
    assert traj.clamp_warnings == 20


def test_unclamped_crossing_does_not_warn():
    s = _constant_field([1.0, 0.0])
    cell = Box(lo=[0.0, 0.0], hi=[1.0, 1.0])
    pu = Box(lo=[-1.0, -1.0], hi=[1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(s, lambda x: np.zeros(2), [0.2, 0.5], cell,
                         dt=1e-2, t_max=5.0, pu=pu)
    assert traj.exit_facet == facet_id(0, +1) and traj.clamp_warnings == 0


def test_affine_model_xdot():
    m = AffineModel(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                    c=[0.5, 0.0], linearization_point=[0.0, 0.0])
    assert np.allclose(m.xdot([1.0, 2.0], [3.0]), [2.5, 3.0])


def test_mecanum_drift_magnitude():
    # drift pushes down-left at roughly 4.5 per axis everywhere
    s = mecanum_system()
    for x in ([0.0, 0.0], [6.0, 6.0], [-5.0, 3.0]):
        d = s.f(np.asarray(x, dtype=float))
        assert d[0] < -3.9 and d[1] < -3.9
        assert np.linalg.norm(d) < 8.0
