"""Facet-reachability certification and affine controller synthesis.

Given a local affine model on a polytope, certify (by each vertex's
fastest admissible control) that some piecewise-affine feedback drives
every state out through a chosen exit facet without first crossing any
other facet: the reach-control vertex conditions of Habets, Collins and
van Schuppen (IEEE TAC 2006). When the cell's dynamics are unknown, every
row of those vertex LPs is tightened by the Lipschitz deviation bounds,
so that the same construction guarantees reachability for every model
within the bounds (predictive certificate). Predictive unreachability
instead relaxes the rows and refutes a facet for all of those models.
Underactuated systems get two relaxations: a truncated-pyramid
subpolytope for facets normal to the heading axis and a threshold-angle
vertex relaxation for side facets.

Every vertex LP has one unknown per input (m ≤ 3) and one closed-form
kernel solves them, for all vertices (and a refutation's exit facets and
sign patterns) at once. No mission LP goes to the tableau simplex.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .deviation import DeviationBounds
from .dynamics import AffineModel
from .geometry import (Box, Polytope, box_to_polytope, facet_axis_dir,
                       locate_simplex, triangulate, truncated_pyramid,
                       GeometryError)
from .optim import DELTA_STRICT


@dataclass
class ExitTimeBound:
    T0: float
    alpha: float
    beta: float
    c1: float


@dataclass
class ReachCertificate:
    exit_facet: int
    controls: dict                     # vertex index -> u_j
    kind: str                          # exact | predictive | relaxed
    margins: dict                      # vertex index -> (robust) outward speed
    polytope: Polytope                 # region the certificate is valid on
    relaxed_vertices: tuple = ()
    exact_vertices: tuple = ()
    bound: Optional[ExitTimeBound] = None   # guaranteed crossing time, if any
    t_est: Optional[float] = None           # typical crossing time


def _certificate(p: Polytope, exit_facet: int, kind: str, controls: dict, margins: dict,
                 exact, relaxed=()) -> ReachCertificate:
    """Certificate with its crossing times.

    The certified speeds are the margins of the exact vertices, or of every
    vertex when none is exact. ``bound`` divides the polytope's extent
    along the exit normal by the slowest of them and is None unless that
    speed exceeds DELTA_STRICT / 2. ``t_est`` divides it by their mean, a
    typical speed of the interpolated closed loop that is usually far
    above the slowest one.
    """
    exact = tuple(exact)
    speeds = [margins[j] for j in exact or margins]
    c1 = min(speeds)
    bound = t_est = None
    if c1 > DELTA_STRICT / 2:
        bound = _crossing_bound(p, exit_facet, c1)
        t_est = (bound.beta - bound.alpha) / float(np.mean(speeds))
    return ReachCertificate(exit_facet=exit_facet, controls=controls, kind=kind,
                            margins=margins, polytope=p, relaxed_vertices=tuple(relaxed),
                            exact_vertices=exact, bound=bound, t_est=t_est)


def _vertex_certificates(model: AffineModel, p: Polytope, exit_facets, pu: Box,
                         spread, kind: str) -> list:
    """Per exit facet, the certificate in which every vertex j takes its
    fastest admissible control with spread[j] and leaves at a speed of at
    least DELTA_STRICT, or None."""
    u, speed, _ = _fastest_controls(model, p, exit_facets, pu, spread)
    return [_certificate(p, fct, kind, dict(enumerate(u[:, f])),
                         {j: _speed(model, p, fct, j, u[j, f]) - spread[j]
                          for j in range(p.n_vertices)}, range(p.n_vertices))
            if (speed[:, f] >= DELTA_STRICT).all() else None
            for f, fct in enumerate(exit_facets)]


def _speed(model: AffineModel, p: Polytope, exit_facet: int, j: int, u) -> float:
    """n1ᵀ(A v_j + B u + c): vertex j's outward speed under control u."""
    return float(p.normals[exit_facet] @ (model.A @ p.vertices[j] + model.B @ u + model.c))


def facet_reachable(model: AffineModel, p: Polytope, exit_facet: int,
                    pu: Box) -> Optional[ReachCertificate]:
    """Exact certificate for a known affine model, or None.

    Every vertex takes its fastest admissible control, which must leave
    through the exit facet at a speed of at least DELTA_STRICT.
    """
    return _vertex_certificates(model, p, [exit_facet], pu, [0.0] * p.n_vertices, "exact")[0]


# Closed-form kernel for the vertex systems (m <= 3 inputs).
# A best corner is a candidate point that violates no row by more than
# _FEAS_TOL; corners within _TIE (relative) of the best slack are tied. A
# system stays possible unless no candidate violating no row by more than
# _NEAR has a slack of DELTA_STRICT - _NEAR or more, so borderline systems
# count as possible and rounding can never refute a reachable facet.
_DET_TOL = 1e-12     # candidate rows this close to parallel define no point
_FEAS_TOL = 1e-9
_NEAR = 1e-6
_TIE = 1e-9


@functools.lru_cache(maxsize=16)
def _pattern_tables(m: int, K: int):
    """Tables shared by every system with m inputs and K invariance rows.

    S (P, m): the sign patterns in itertools.product((1, -1)) order.
    cap_lo, cap_hi (P, m): bounds whose max/min with the input box clip it
    to each pattern's orthant. box (m, 2m): the rows [I; -I] by component.
    pick (m, Q): the m-tuples of rows that can meet in one point (two box
    rows of one axis are parallel).
    """
    def meet(rows):
        axes = [r % m for r in rows if r < 2 * m]
        return len(set(axes)) == len(axes)

    S = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
    cap_lo = np.where(S > 0, 0.0, -np.inf)
    cap_hi = np.where(S < 0, 0.0, np.inf)
    box = np.hstack([np.eye(m), -np.eye(m)])
    pick = np.array([c for c in itertools.combinations(range(2 * m + K), m) if meet(c)],
                    dtype=int).reshape(-1, m).T
    for a in (S, cap_lo, cap_hi, box, pick):
        a.flags.writeable = False
    return S, cap_lo, cap_hi, box, pick


def _vertex_systems(model: AffineModel, p: Polytope, exit_facets, lo, hi, margin, dB):
    """(C, d, pick): the systems C u ≤ d of every (vertex j, exit facet f,
    pattern k), with C (m, R + 1, M, F, P) by input component,
    d (R + 1, M, F, P) and R = 2m + K; P patterns of lo, hi (P, m) and
    dB (m, P). Rows 0..2m-1 bound u to [lo_k, hi_k]. The next K are each
    vertex's facet rows n_iᵀ(A v_j + B u + c) + dB_kᵀu ≤ margin_j, where
    the exit facet and the padding of vertices with fewer facets are
    0·u ≤ 1. The last row is the strict row negated: its slack
    d[R] - C[:, R]·u is n1ᵀ(A v_j + B u + c) - dB_kᵀu + margin_j.
    """
    # Products are broadcast sums and the mask is built in Python: integer
    # ufuncs, argmax and some BLAS kernels are not used elsewhere in a
    # mission, and touching their code first here would raise its peak RSS.
    m = model.B.shape[1]
    exits = list(exit_facets)
    # row k holds the k-th facet of every vertex, -1 past a vertex's last
    table = list(itertools.zip_longest(*p.vertex_facets, fillvalue=-1))
    idx = np.array(table)
    real = np.array([[[i >= 0 and i != f for f in exits] for i in row] for row in table],
                    dtype=bool)
    K, M = idx.shape
    _, _, _, box, pick = _pattern_tables(m, K)
    w = (model.A @ p.vertices.T).T + model.c                         # A v_j + c
    drift = (p.normals[idx] * w).sum(axis=2)                         # (K, M)
    drift_exit = (p.normals[exits][:, None] * w).sum(axis=2)         # (F, M)
    NB = (p.normals @ model.B).T
    C = np.empty((m, 2 * m + K + 1, M, len(exits), lo.shape[0]))
    d = np.empty(C.shape[1:])
    C[:, :2 * m] = box[:, :, None, None, None]
    d[:m] = hi.T[:, None, None]
    d[m:2 * m] = -lo.T[:, None, None]
    C[:, 2 * m:-1] = np.where(real[:, :, :, None],
                              NB[:, idx, None, None] + dB[:, None, None, None], 0.0)
    d[2 * m:-1] = np.where(real, (margin - drift)[:, :, None], 1.0)[..., None]
    C[:, -1] = (dB[:, None] - NB[:, exits, None])[:, None]
    d[-1] = (drift_exit + margin).T[:, :, None]
    return C, d, pick


def _robust_rows(model: AffineModel, bounds: DeviationBounds, p: Polytope,
                 exit_facets, pu: Box):
    """(C, d, pick, boxed): the _vertex_systems of every sign pattern s_k,
    over its orthant of the input box (``boxed`` (P,) is False where that
    is empty), with every row loosened by what an in-bound model could
    gain: margin_j = eps_A‖v_j‖ + eps_c, dB_k = -eps_B·s_k. So
    infeasibility at a vertex refutes every in-bound model."""
    S, cap_lo, cap_hi, _, _ = _pattern_tables(pu.dim, max(map(len, p.vertex_facets)))
    margin = bounds.eps_A * np.sqrt((p.vertices * p.vertices).sum(axis=1)) + bounds.eps_c
    lo = np.maximum(pu.lo, cap_lo)
    hi = np.minimum(pu.hi, cap_hi)
    C, d, pick = _vertex_systems(model, p, exit_facets, lo, hi, margin, -bounds.eps_B * S.T)
    return C, d, pick, (lo <= hi).all(axis=1)


def _cross(x, y):
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _solve_square(A, r):
    """Batched A u = r for m ≤ 3 by Cramer's rule (cross products of the
    rows for m = 3); A[k][i] is coefficient k of row i and r[i] its bound.
    Systems with |det A| ≤ _DET_TOL get NaN, which every comparison rejects.
    """
    m = len(r)
    if m == 1:
        det = A[0][0]
        num = (r[0],)
    elif m == 2:
        det = A[0][0] * A[1][1] - A[1][0] * A[0][1]
        num = (r[0] * A[1][1] - r[1] * A[1][0], A[0][0] * r[1] - A[0][1] * r[0])
    elif m > 3:
        raise ValueError(f"closed-form verdicts need m <= 3 inputs, not {m}")
    else:
        rows = [[A[k][i] for k in range(3)] for i in range(3)]
        c12, c20, c01 = (_cross(rows[1], rows[2]), _cross(rows[2], rows[0]),
                         _cross(rows[0], rows[1]))
        det = rows[0][0] * c12[0] + rows[0][1] * c12[1] + rows[0][2] * c12[2]
        num = tuple(r[0] * c12[k] + r[1] * c20[k] + r[2] * c01[k] for k in range(3))
    inv = 1.0 / np.where(np.abs(det) > _DET_TOL, det, np.nan)
    return [x * inv for x in num]


def _closed_form_verdicts(C, d, pick, boxed=True):
    """Decide every system of m ≤ 3 inputs in the layout of
    _vertex_systems and find its best corner.

    The largest strict-row slack over a system's box and invariance rows
    is attained where m of its rows meet (fixed-dimension LP after Megiddo,
    JACM 1984, and Seidel, DCG 1991), and every such point is enumerated.
    The best corner is the candidate within _FEAS_TOL of every row with the
    largest slack. Tie rule: among the candidates within _TIE·max(1, |best|)
    of that slack, take the lexicographically smallest u (least u_0, then
    least u_1, ...). Returns (possible, u, slack): the mask (M, F, P) of
    the systems that some candidate within _NEAR of every row meets with a
    slack of DELTA_STRICT - _NEAR or more (False where ``boxed`` is False), and
    each best corner u (m, M, F, P) with its slack, NaN and -inf without a
    candidate.
    """
    m = C.shape[0]
    U = _solve_square([C[k][pick] for k in range(m)], d[pick])   # m x (Q, M, F, P)
    # box rows ±u_k ≤ d directly, the other rows by their coefficients
    viol = np.maximum(U[0] - d[0], -U[0] - d[m])
    for k in range(1, m):
        viol = np.maximum(viol, np.maximum(U[k] - d[k], -U[k] - d[m + k]))
    res = C[0, 2 * m:, None] * U[0]                             # (K + 1, Q, M, F, P)
    for k in range(1, m):
        res += C[k, 2 * m:, None] * U[k]
    res -= d[2 * m:, None]
    viol = np.maximum(viol, res[:-1].max(axis=0))
    slack = -res[-1]
    ok = viol <= _FEAS_TOL
    best = np.where(ok, slack, -np.inf).max(axis=0)
    near = np.where(viol <= _NEAR, slack, -np.inf).max(axis=0)
    possible = (near >= DELTA_STRICT - _NEAR) & boxed
    tied = ok & (slack >= best - _TIE * np.maximum(1.0, np.abs(best)))
    u = []
    for k in range(m):
        low = np.where(tied, U[k], np.inf).min(axis=0)
        tied &= U[k] == low
        u.append(low)
    return (possible, np.where(best > -np.inf, u, np.nan),
            np.where(tied, slack, -np.inf).max(axis=0))


def _fastest_controls(model: AffineModel, p: Polytope, exit_facets, pu: Box, spread):
    """(u (M, F, m), speed (M, F), d[..., 0] of _vertex_systems) from one
    kernel call: vertex j's control for exit facet f maximizes its speed
    n_fᵀ(A v_j + B u + c) - spread[j] over the input box and its rows
    n_iᵀ(A v_j + B u + c) + spread[j] ≤ 0; u NaN, speed -inf without one.
    The speed is the kernel's slack, which _speed matches to rounding.
    """
    C, d, pick = _vertex_systems(model, p, exit_facets, pu.lo[None], pu.hi[None],
                                 -np.asarray(spread, dtype=float), np.zeros((pu.dim, 1)))
    _, u, speed = _closed_form_verdicts(C, d, pick)
    return u[..., 0].transpose(1, 2, 0), speed[..., 0], d[..., 0]


def fastest_control(a, rows, rhs, pu: Box):
    """Control u in the input box with rows·u ≤ rhs and the largest aᵀu
    (m ≤ 3 inputs), by the kernel and tie rule of _closed_form_verdicts,
    or None when no control in the box meets the rows."""
    _, _, _, box, pick = _pattern_tables(pu.dim, len(rhs))
    C = np.hstack([box, rows.T, -a[:, None]])
    d = np.concatenate([pu.hi, -pu.lo, rhs, [0.0]])
    _, u, slack = _closed_form_verdicts(C[:, :, None, None, None], d[:, None, None, None], pick)
    return u[:, 0, 0, 0] if slack[0, 0, 0] > -np.inf else None


def predict_unreachable(model: AffineModel, bounds: DeviationBounds, p: Polytope,
                        exit_facets, pu: Box) -> list:
    """Per exit facet, True iff no affine model within the bounds can reach it.

    Holds when some vertex is infeasible even for the outward-relaxed
    (best-case) inequality system under every control sign pattern. The
    systems (m ≤ 3 inputs) are decided in closed form, all facets in one
    kernel call; a system the kernel cannot rule out counts as feasible,
    so only certain infeasibility refutes.
    """
    C, d, pick, boxed = _robust_rows(model, bounds, p, exit_facets, pu)
    possible = _closed_form_verdicts(C, d, pick, boxed)[0].tolist()
    return [not all(True in vertex[f] for vertex in possible) for f in range(len(possible[0]))]


def predict_reachable(model: AffineModel, bounds: DeviationBounds, p: Polytope,
                      exit_facets, pu: Box) -> list:
    """Per exit facet, a certificate valid for every affine model within
    the deviation bounds, or None.

    Built like an exact certificate, with every row of vertex j tightened
    by _robust_spread's bound on how far an in-bound model can move it, so
    its margins are robust outward speeds and its bound and t_est follow
    from them.
    """
    spread = _robust_spread(bounds, p, pu)
    return _vertex_certificates(model, p, exit_facets, pu, spread, "predictive")


# Containment tolerance of locate_simplex, and the band around it in which
# a weight from the stacked inverses is not trusted. Near the tolerance
# those weights differ from the exact Simplex.barycentric solve by about
# 1e-15, also on thin boxes and steep truncated pyramids.
LOCATE_TOL = 1e-9
LOCATE_BAND = 1e-10


@dataclass
class PWAController:
    """Piecewise-affine feedback u = F_l x + g_l on a triangulated polytope.

    Every Kuhn simplex starts at the same vertex v0 (code 0), so the
    barycentric weights of x in all n! simplices are one product,
    ``bary @ (x - v0) + unit``: block l of n+1 rows holds the inverse edge
    matrix of simplex l under the row that gives its v0 weight. A weight
    within LOCATE_BAND of the tolerance, or a point outside the polytope,
    is settled by locate_simplex itself, so the chosen simplex is always
    the one locate_simplex (lowest index on ties) or, outside, the
    least-violating rule picks.
    """

    simplices: list
    gains: list          # (F, g) per simplex
    origin: np.ndarray = field(init=False, repr=False)
    bary: np.ndarray = field(init=False, repr=False)
    unit: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.origin = self.simplices[0].vertices[0]
        blocks = []
        for s in self.simplices:
            if not np.array_equal(s.vertices[0], self.origin):
                raise ValueError("simplices must share their first vertex")
            inv = np.linalg.inv((s.vertices[1:] - self.origin).T)
            blocks.append(np.vstack([-inv.sum(axis=0), inv]))
        self.bary = np.vstack(blocks)
        self.unit = np.zeros(self.bary.shape[0])
        self.unit[::self.origin.size + 1] = 1.0

    def locate(self, x: np.ndarray) -> int:
        """Index of the simplex whose affine law applies at x."""
        lam = (self.bary @ (x - self.origin) + self.unit).tolist()
        n1 = self.origin.size + 1
        for idx in range(len(self.simplices)):
            low = min(lam[idx * n1:(idx + 1) * n1])
            if low >= -LOCATE_TOL + LOCATE_BAND:
                return idx
            if low > -LOCATE_TOL - LOCATE_BAND:
                break       # too close to the tolerance to call
        try:
            idx, _ = locate_simplex(self.simplices, x, tol=LOCATE_TOL)
        except GeometryError:
            # numerical overshoot outside the polytope: fall back to the
            # least-violating simplex
            idx = max(range(len(self.simplices)),
                      key=lambda i: float(np.min(self.simplices[i].barycentric(x))))
        return idx

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        F, g = self.gains[self.locate(x)]
        return F @ x + g


def synthesize_controller(p: Polytope, controls: dict) -> PWAController:
    """Interpolate vertex controls into an affine law per Kuhn simplex."""
    tri = triangulate(p)
    gains = []
    n = p.dim
    for s in tri:
        V = np.vstack([s.vertices.T, np.ones((1, n + 1))])   # (n+1, n+1)
        U = np.array([controls[j] for j in s.vertex_ids]).T  # (m, n+1)
        if abs(np.linalg.det(V)) < 1e-14:
            raise GeometryError("degenerate simplex in controller synthesis")
        Fg = U @ np.linalg.inv(V)
        gains.append((Fg[:, :n], Fg[:, n]))
    return PWAController(simplices=tri, gains=gains)


def _crossing_bound(p: Polytope, exit_facet: int, c1: float) -> ExitTimeBound:
    """(beta - alpha) / c1, where alpha/beta span the exit-normal extent of
    the whole polytope."""
    proj = p.vertices @ p.normals[exit_facet]
    alpha = float(np.min(proj))
    beta = float(np.max(proj))
    return ExitTimeBound(T0=(beta - alpha) / c1, alpha=alpha, beta=beta, c1=c1)


def exit_time_bound(model: AffineModel, p: Polytope, controls: dict,
                    exit_facet: int) -> ExitTimeBound:
    """Guaranteed crossing-time bound (beta - alpha) / c1 for vertex
    controls, c1 the minimum outward speed over the vertices."""
    c1 = min(_speed(model, p, exit_facet, j, controls[j]) for j in range(p.n_vertices))
    if c1 <= DELTA_STRICT / 2:
        raise ValueError(f"degenerate exit-time bound: c1 = {c1}")
    return _crossing_bound(p, exit_facet, c1)


def _robust_spread(bounds: DeviationBounds, p: Polytope, pu: Box) -> list:
    """Per vertex, eps_A·‖v_j‖ + eps_B·U_max + eps_c: how far an in-bound
    model can move n·(A v_j + B u + c) for a unit normal n and any u in the
    input box, whose largest vertex norm is U_max."""
    u_max = max(float(np.linalg.norm(pu.vertex(c))) for c in range(2 ** pu.dim))
    return [bounds.eps_A * float(np.linalg.norm(v)) + bounds.eps_B * u_max + bounds.eps_c
            for v in p.vertices]


def robust_exit_time_bound(model: AffineModel, bounds: DeviationBounds,
                           p: Polytope, exit_facet: int, pu: Box) -> Optional[ExitTimeBound]:
    """Exit-time bound valid for every in-bound model: the bound of the
    predictive certificate for ``exit_facet``, or None without one."""
    cert, = predict_reachable(model, bounds, p, [exit_facet], pu)
    return None if cert is None else cert.bound


def relaxed_facet_reachable(model: AffineModel, cube: Box, exit_facet: int,
                            pu: Box, theta_thre: float,
                            shrink: float = 0.5) -> Optional[ReachCertificate]:
    """Underactuated relaxation for a cell whose last state axis is the
    heading.

    Facets normal to the heading axis: certify on a truncated-pyramid
    subpolytope (opposite facet scaled by ``shrink``); the certificate is
    only valid inside that subpolytope. Side facets: vertices failing the
    exact rows are accepted with u_j = 0 when the achievable flow cone is
    within ``theta_thre`` of the exit normal on both extremes.
    """
    axis, direction = facet_axis_dir(exit_facet)
    if axis == cube.dim - 1:
        sub = truncated_pyramid(cube, axis, direction, shrink)
        return _vertex_certificates(model, sub, [exit_facet], pu, [0.0] * sub.n_vertices,
                                    "relaxed")[0]

    p = box_to_polytope(cube)
    n1 = p.normals[exit_facet]
    u, speed, d = _fastest_controls(model, p, [exit_facet], pu, [0.0] * p.n_vertices)
    controls, margins = {}, {}
    relaxed, exact = [], []
    u_abs = float(np.max(np.abs(np.concatenate([pu.lo, pu.hi]))))
    for j in range(p.n_vertices):
        if speed[j, 0] >= DELTA_STRICT:
            controls[j], margins[j] = u[j, 0], _speed(model, p, exit_facet, j, u[j, 0])
            exact.append(j)
            continue
        drift = model.A @ p.vertices[j] + model.c
        # most outward-pointing velocity still admissible for invariance
        w = drift + model.B @ u[j, 0] if speed[j, 0] > -np.inf else drift
        outward = float(n1 @ w)
        nw = float(np.linalg.norm(w))
        if outward >= 0.0 or nw < 1e-15:
            ang = 0.0
        else:
            ang = float(np.arcsin(min(1.0, -outward / nw)))
        if ang > theta_thre + 1e-12:
            return None
        # zero control at relaxed vertices; the remaining invariance rows
        # (n_i·drift = -d_i) must hold up to a tolerance commensurate with
        # the threshold angle
        tol = np.sin(theta_thre) * max(float(np.linalg.norm(drift)), 0.05 * u_abs)
        if np.any(-d[2 * pu.dim:-1, j, 0] > tol):
            return None
        controls[j] = np.zeros(pu.dim)
        margins[j] = float(n1 @ drift)
        relaxed.append(j)
    return _certificate(p, exit_facet, "relaxed" if relaxed else "exact", controls,
                        margins, exact, relaxed)
