"""True-system models, analytic linearization, and closed-loop integration.

Two benchmark systems are built in: a mecanum-wheel ground robot with
terrain-dependent drift (fully actuated, n = m = 2) and a unicycle with
small heading/velocity disturbances (underactuated, n = 3, m = 2).

Rollouts run on Python floats: every RK4 stage evaluates the plant as
scalar arithmetic, and only the samples a ``Trajectory`` records become
arrays. Each product and sum of ``f(x) + g(x) u`` is rounded on its own,
so a plant step does not depend on which BLAS kernel numpy loads
(OpenBLAS may compute a 2x2 ``g @ u`` with a fused multiply-add). A
trajectory still does: the controller it runs evaluates ``F @ x + g``
through BLAS, and identification and synthesis call LAPACK (README,
Modules). Each built-in plant also writes its derivative out in closed
form, in the association ``rhs`` uses, and steps it with the RK4 of its
dimension (``_rk4_2``, ``_rk4_3``) as ``TrueSystem.step``, so it reaches
the same floats as the generic RK4 over ``rhs`` without its lists and
calls; a plant given by ``f`` and ``g`` alone takes the generic RK4.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

import numpy as np

from .geometry import Box, facet_id


@dataclass
class TrueSystem:
    """Control-affine plant xdot = f(x) + g(x) u.

    ``f`` maps a state sequence to n drift components and ``g`` to n rows
    of m input gains; any sequences of floats will do (the built-in plants
    return lists, ndarrays work too)."""

    n: int
    m: int
    f: Callable
    g: Callable
    df: Optional[Callable] = None  # Jacobian of the drift, when closed-form
    # step(x, u, dt): one RK4 step under the held control u, on float
    # sequences, bit-equal to the generic RK4 over rhs (_rk4)
    step: Optional[Callable] = None

    def rhs(self, x, u) -> list:
        """f(x) + g(x) u as a list of floats, the rollouts' derivative.

        For m <= 2, ``sum`` rounds like plain addition on every Python
        version (3.12's compensated sum differs only from three terms on)."""
        return [fi + sum(map(mul, row, u)) for fi, row in zip(self.f(x), self.g(x))]

    def xdot(self, x, u) -> np.ndarray:
        return np.array(self.rhs(np.asarray(x, dtype=float).tolist(),
                                 np.asarray(u, dtype=float).tolist()))


@dataclass
class AffineModel:
    """Local affine surrogate xdot ~= A x + B u + c."""

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    linearization_point: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.linearization_point = np.asarray(self.linearization_point, dtype=float)

    def xdot(self, x, u):
        return self.A @ np.asarray(x, float) + self.B @ np.asarray(u, float) + self.c

    @functools.cached_property
    def B_pinv(self) -> np.ndarray:
        """Pseudo-inverse of B."""
        return np.linalg.pinv(self.B)


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    exit_facet: Optional[int] = None
    exit_time: Optional[float] = None
    clamp_warnings: int = 0

    @property
    def final_state(self):
        return self.x[-1]


def mecanum_system() -> TrueSystem:
    sin = math.sin

    def f(x):
        x0, x1 = x
        return [-0.5 * math.sin(0.1 * x0 - 0.2 * x1) - 4.5,
                -0.2 * math.sin(0.3 * x0 - 0.1 * x1) - 4.5]

    def g(x):
        x0, x1 = x
        return [[1.0 + 0.02 * x0, 0.02 * x1],
                [-0.02 * x0, 1.0 - 0.02 * x1]]

    def df(x):
        c1 = np.cos(0.1 * x[0] - 0.2 * x[1])
        c2 = np.cos(0.3 * x[0] - 0.1 * x[1])
        return np.array([
            [-0.05 * c1, 0.10 * c1],
            [-0.06 * c2, 0.02 * c2],
        ])

    def step(x, u, dt):
        u0, u1 = u

        def d(y0, y1):
            # f_i + (0 + g_i0 u0 + g_i1 u1), rounded as rhs's sum rounds it
            return (-0.5 * sin(0.1 * y0 - 0.2 * y1) - 4.5
                    + (0.0 + (1.0 + 0.02 * y0) * u0 + 0.02 * y1 * u1),
                    -0.2 * sin(0.3 * y0 - 0.1 * y1) - 4.5
                    + (0.0 + -0.02 * y0 * u0 + (1.0 - 0.02 * y1) * u1))

        return _rk4_2(d, x, dt)

    return TrueSystem(n=2, m=2, f=f, g=g, df=df, step=step)


def unicycle_system() -> TrueSystem:
    sin, cos = math.sin, math.cos

    def dv(x):
        return 0.03 * np.cos(0.01 * x[0] + 0.02 * x[1])

    def f(x):
        x0, x1, th = x
        v = 0.03 * math.cos(0.01 * x0 + 0.02 * x1)
        return [math.cos(th) * v, math.sin(th) * v,
                0.03 * math.sin(-0.02 * x0 + 0.01 * x1)]

    def g(x):
        th = x[2]
        return [[math.cos(th), 0.0], [math.sin(th), 0.0], [0.0, 1.0]]

    def df(x):
        th = x[2]
        ddv = np.array([-0.03 * 0.01 * np.sin(0.01 * x[0] + 0.02 * x[1]),
                        -0.03 * 0.02 * np.sin(0.01 * x[0] + 0.02 * x[1]), 0.0])
        ddw = np.array([-0.03 * 0.02 * np.cos(-0.02 * x[0] + 0.01 * x[1]),
                        0.03 * 0.01 * np.cos(-0.02 * x[0] + 0.01 * x[1]), 0.0])
        J = np.zeros((3, 3))
        J[0, :] = np.cos(th) * ddv
        J[0, 2] += -np.sin(th) * dv(x)
        J[1, :] = np.sin(th) * ddv
        J[1, 2] += np.cos(th) * dv(x)
        J[2, :] = ddw
        return J

    def step(x, u, dt):
        u0, u1 = u
        # rows 0 and 1 end in 0.0 * u1; row 2's input term is constant
        z = 0.0 * u1
        w = 0.0 + 0.0 * u0 + 1.0 * u1

        def d(y0, y1, y2):
            # f_i + (0 + g_i0 u0 + g_i1 u1), rounded as rhs's sum rounds it
            v = 0.03 * cos(0.01 * y0 + 0.02 * y1)
            c, s = cos(y2), sin(y2)
            return (c * v + (0.0 + c * u0 + z), s * v + (0.0 + s * u0 + z),
                    0.03 * sin(-0.02 * y0 + 0.01 * y1) + w)

        return _rk4_3(d, x, dt)

    return TrueSystem(n=3, m=2, f=f, g=g, df=df, step=step)


def analytic_linearize(s: TrueSystem, x_e) -> AffineModel:
    """Exact first-order model at x_e: A = df(x_e), B = g(x_e), c = f - A x_e."""
    x_e = np.asarray(x_e, dtype=float)
    if s.df is None:
        raise ValueError("system has no closed-form drift Jacobian")
    A = s.df(x_e)
    B = np.array(s.g(x_e), dtype=float)
    c = np.array(s.f(x_e), dtype=float) - A @ x_e
    return AffineModel(A=A, B=B, c=c, linearization_point=x_e)


# excess over the input box below which a clamp is rounding, not reported
CLAMP_TOL = 1e-9


def _clamp(u: list, lo: list, hi: list):
    """u clamped to [lo, hi] componentwise, and whether any component
    exceeded the box by more than CLAMP_TOL (PWA interpolation of
    box-corner controls overshoots by about 1e-15)."""
    clamped = [min(max(ui, l), h) for ui, l, h in zip(u, lo, hi)]
    return clamped, any(abs(c - ui) > CLAMP_TOL for c, ui in zip(clamped, u))


def _rk4(deriv, x: list, dt: float) -> list:
    """One classical RK4 step of xdot = deriv(x) on a list of floats."""
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = deriv(x)
    k2 = deriv([xi + half * ki for xi, ki in zip(x, k1)])
    k3 = deriv([xi + half * ki for xi, ki in zip(x, k2)])
    k4 = deriv([xi + dt * ki for xi, ki in zip(x, k3)])
    return [xi + sixth * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _rk4_2(d, x, dt: float) -> list:
    """_rk4 on two floats, with the derivative d(y0, y1) -> (dy0, dy1)
    written out in closed form; the same rounding as _rk4."""
    x0, x1 = x
    half, sixth = 0.5 * dt, dt / 6.0
    a0, a1 = d(x0, x1)
    b0, b1 = d(x0 + half * a0, x1 + half * a1)
    c0, c1 = d(x0 + half * b0, x1 + half * b1)
    e0, e1 = d(x0 + dt * c0, x1 + dt * c1)
    return [x0 + sixth * (a0 + 2 * b0 + 2 * c0 + e0),
            x1 + sixth * (a1 + 2 * b1 + 2 * c1 + e1)]


def _rk4_3(d, x, dt: float) -> list:
    """_rk4 on three floats, as _rk4_2."""
    x0, x1, x2 = x
    half, sixth = 0.5 * dt, dt / 6.0
    a0, a1, a2 = d(x0, x1, x2)
    b0, b1, b2 = d(x0 + half * a0, x1 + half * a1, x2 + half * a2)
    c0, c1, c2 = d(x0 + half * b0, x1 + half * b1, x2 + half * b2)
    e0, e1, e2 = d(x0 + dt * c0, x1 + dt * c1, x2 + dt * c2)
    return [x0 + sixth * (a0 + 2 * b0 + 2 * c0 + e0),
            x1 + sixth * (a1 + 2 * b1 + 2 * c1 + e1),
            x2 + sixth * (a2 + 2 * b2 + 2 * c2 + e2)]


def _rk4_step(s: TrueSystem, x: list, u: list, dt: float) -> list:
    """One RK4 step of the plant under the held control u: the plant's
    closed-form step, or the generic RK4 over ``rhs`` if it has none."""
    if s.step is not None:
        return s.step(x, u, dt)
    return _rk4(lambda z: s.rhs(z, u), x, dt)


def _exit_violation(x: list, lo: list, hi: list):
    """Most-violated facet of the cell [lo, hi] and its signed violation."""
    best_f, best_v = None, 0.0
    for k, (xk, lk, hk) in enumerate(zip(x, lo, hi)):
        if lk - xk > best_v:
            best_v, best_f = lk - xk, facet_id(k, -1)
        if xk - hk > best_v:
            best_v, best_f = xk - hk, facet_id(k, +1)
    return best_f, best_v


def integrate(s: TrueSystem, ctrl, x0, cell: Box, dt: float, t_max: float,
              pu: Optional[Box] = None, record_stride: int = 1) -> Trajectory:
    """Fixed-step RK4 rollout with facet-crossing event detection.

    The control is held constant across each RK4 step (zero-order hold at
    the step start); ``ctrl`` is called before every step with the state as
    a list of floats, and returning None ends the rollout there, with the
    state reached recorded. On the first step whose endpoint leaves the
    cell the crossing time is bisected to 1e-9 and the trajectory truncated
    there.
    """
    x0 = np.asarray(x0, dtype=float)
    if not cell.contains(x0, tol=1e-7):
        raise ValueError("initial state outside the cell")
    x = x0.tolist()
    lo, hi = cell.lo.tolist(), cell.hi.tolist()
    if pu is not None:
        u_lo, u_hi = pu.lo.tolist(), pu.hi.tolist()
    ts, xs, us = [0.0], [x], []
    clamps = 0
    t = 0.0
    exit_facet = exit_time = None
    n_steps = int(np.ceil(t_max / dt - 1e-12))
    for step in range(n_steps):
        if (v := ctrl(x)) is None:
            break
        u = np.asarray(v, dtype=float).tolist()
        if pu is not None:
            u, was_clamped = _clamp(u, u_lo, u_hi)
            clamps += was_clamped
        h = min(dt, t_max - t)
        x_new = _rk4_step(s, x, u, h)
        if not all(map(math.isfinite, x_new)):
            raise FloatingPointError("non-finite state during integration")
        fct, vio = _exit_violation(x_new, lo, hi)
        if fct is not None and vio > 1e-12:
            # bisect the crossing time within this step
            lo_t, hi_t = 0.0, h
            for _ in range(200):
                if hi_t - lo_t <= 1e-9:
                    break
                mid = 0.5 * (lo_t + hi_t)
                f_mid, v_mid = _exit_violation(_rk4_step(s, x, u, mid), lo, hi)
                if f_mid is not None and v_mid > 1e-12:
                    hi_t = mid
                else:
                    lo_t = mid
            x = _rk4_step(s, x, u, hi_t)
            f_cross, _ = _exit_violation(x, lo, hi)
            t += hi_t
            exit_facet, exit_time = (fct if f_cross is None else f_cross), t
            break
        x = x_new
        t += h
        if (step + 1) % record_stride == 0:
            ts.append(t)
            xs.append(x)
            us.append(u)
    if xs[-1] is not x:
        # the crossing, or the end of a rollout between record_stride samples
        ts.append(t)
        xs.append(x)
        us.append(u)
    if clamps:
        warnings.warn(f"control clamped to input box on {clamps} steps")
    return Trajectory(t=np.array(ts), x=np.array(xs), u=np.array(us),
                      exit_facet=exit_facet, exit_time=exit_time, clamp_warnings=clamps)
