"""The float rollout against the numpy rollout it replaced.

``integrate`` and ``_rk4_step`` once ran on numpy arrays. They are kept
here, as they were, as the reference: on random states, controls and
cells of both built-in plants the float rollout must leave by the same
facet at the same time, through the same states, in as many RK4 steps.
"""
import warnings

import numpy as np
import pytest

from reachplan import dynamics
from reachplan.dynamics import integrate, mecanum_system, unicycle_system
from reachplan.geometry import Box, facet_id

TOL = 1e-12


def _rk4_step_np(deriv, x, dt):
    k1 = deriv(x)
    k2 = deriv(x + 0.5 * dt * k1)
    k3 = deriv(x + 0.5 * dt * k2)
    k4 = deriv(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _exit_violation_np(x, cell):
    best_f, best_v = None, 0.0
    for k, (xk, lo, hi) in enumerate(zip(x.tolist(), cell.lo.tolist(), cell.hi.tolist())):
        if lo - xk > best_v:
            best_v, best_f = lo - xk, facet_id(k, -1)
        if xk - hi > best_v:
            best_v, best_f = xk - hi, facet_id(k, +1)
    return best_f, best_v


def _integrate_np(s, ctrl, x0, cell, dt, t_max, pu, record_stride):
    """The numpy rollout: (t, x, u, exit_facet, exit_time, clamps, steps)."""
    steps = 0

    def step_fn(deriv, x, h):
        nonlocal steps
        steps += 1
        return _rk4_step_np(deriv, x, h)

    def xdot(x, u):
        return np.asarray(s.f(x), dtype=float) + np.asarray(s.g(x), dtype=float) @ u

    x = np.asarray(x0, dtype=float).copy()
    ts, xs, us = [0.0], [x.copy()], []
    clamps = 0
    t = 0.0
    n_steps = int(np.ceil(t_max / dt - 1e-12))
    for step in range(n_steps):
        u = np.asarray(ctrl(x), dtype=float)
        clamped = np.minimum(np.maximum(u, pu.lo), pu.hi)
        clamps += bool((np.abs(clamped - u) > dynamics.CLAMP_TOL).any())
        u = clamped
        deriv = lambda z: xdot(z, u)
        h = min(dt, t_max - t)
        x_new = step_fn(deriv, x, h)
        fct, vio = _exit_violation_np(x_new, cell)
        if fct is not None and vio > 1e-12:
            lo_t, hi_t = 0.0, h
            for _ in range(200):
                if hi_t - lo_t <= 1e-9:
                    break
                mid = 0.5 * (lo_t + hi_t)
                f_mid, v_mid = _exit_violation_np(step_fn(deriv, x, mid), cell)
                if f_mid is not None and v_mid > 1e-12:
                    hi_t = mid
                else:
                    lo_t = mid
            x_cross = step_fn(deriv, x, hi_t)
            f_cross, _ = _exit_violation_np(x_cross, cell)
            t += hi_t
            ts.append(t)
            xs.append(x_cross)
            us.append(u)
            return (np.array(ts), np.array(xs), np.array(us),
                    f_cross if f_cross is not None else fct, t, clamps, steps)
        x = x_new
        t += h
        if (step + 1) % record_stride == 0 or step == n_steps - 1:
            ts.append(t)
            xs.append(x.copy())
            us.append(u)
    return np.array(ts), np.array(xs), np.array(us), None, None, clamps, steps


@pytest.mark.parametrize("maker", [mecanum_system, unicycle_system])
def test_float_rollout_matches_numpy_rollout(maker, monkeypatch):
    s = maker()
    rng = np.random.default_rng(31)
    steps = 0
    rk4_step = dynamics._rk4_step

    def counted(*args):
        nonlocal steps
        steps += 1
        return rk4_step(*args)

    monkeypatch.setattr(dynamics, "_rk4_step", counted)
    pu = Box(lo=[-4.0] * s.m, hi=[4.0] * s.m)
    exits = timeouts = 0
    for _ in range(60):
        x0 = rng.uniform(-6.0, 6.0, s.n)
        cell = Box(lo=x0 - rng.uniform(0.02, 1.0, s.n), hi=x0 + rng.uniform(0.02, 1.0, s.n))
        K = rng.uniform(-2.0, 2.0, (s.m, s.n))
        k0 = rng.uniform(-5.0, 5.0, s.m)     # some controls leave the input box

        def ctrl(x):
            return K @ np.asarray(x) + k0

        dt = float(rng.choice([1e-3, 4e-3, 1e-2]))
        t_max = float(rng.uniform(0.05, 0.4))
        stride = int(rng.choice([1, 3, 10]))
        want_t, want_x, want_u, want_fct, want_te, want_clamps, want_steps = \
            _integrate_np(s, ctrl, x0, cell, dt, t_max, pu, stride)
        steps = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = integrate(s, ctrl, x0, cell, dt, t_max, pu=pu, record_stride=stride)
        assert got.exit_facet == want_fct
        assert steps == want_steps
        assert got.clamp_warnings == want_clamps
        assert got.t.shape == want_t.shape and got.x.shape == want_x.shape
        assert got.u.shape == want_u.shape
        assert np.abs(got.t - want_t).max() <= TOL
        assert np.abs(got.x - want_x).max() <= TOL
        assert np.abs(got.u - want_u).max(initial=0.0) <= TOL
        if want_fct is None:
            timeouts += 1
            assert got.exit_time is None
        else:
            exits += 1
            assert abs(got.exit_time - want_te) <= TOL
    # both outcomes are exercised
    assert exits >= 10 and timeouts >= 10, (exits, timeouts)
