"""Facet-reachability certification and affine controller synthesis.

Given a local affine model on a polytope, certify (by one LP per vertex
for its fastest admissible control) that some piecewise-affine feedback
drives every state out through a chosen exit facet without first crossing
any other facet: the reach-control vertex conditions of Habets, Collins
and van Schuppen (IEEE TAC 2006). When the cell's dynamics are unknown,
every row of those LPs is tightened by the Lipschitz deviation bounds, so
that the same construction guarantees reachability for every model
within the bounds (predictive certificate). Predictive unreachability
instead relaxes the rows and refutes a facet for all of those models.
Underactuated systems get two relaxations: a truncated-pyramid
subpolytope for facets normal to the heading axis and a threshold-angle
vertex relaxation for side facets.

The relaxed refutation systems have one unknown per input (m ≤ 3 on the
built-in plants) and are decided in closed form, for all vertices, exit
facets and sign patterns of a cell at once; the tableau simplex only
settles borderline systems.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .deviation import DeviationBounds
from .dynamics import AffineModel
from .geometry import (Box, Polytope, Simplex, box_to_polytope, facet_axis_dir,
                       locate_simplex, triangulate, truncated_pyramid,
                       GeometryError)
from .optim import DELTA_STRICT, LinearFeasibilityProblem, linear_feasible, maximin_lp


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


def _vertex_rows(model: AffineModel, p: Polytope, j: int, exit_facet: int):
    """Exact per-vertex rows: (strict exit row, non-strict invariance rows).

    Strict: n1ᵀ(A v_j + B u + c) > 0. Non-strict: n_iᵀ(A v_j + B u + c) ≤ 0
    for every facet of the vertex other than the exit facet.
    """
    v = p.vertices[j]
    drift = model.A @ v + model.c
    n1 = p.normals[exit_facet]
    a_strict = n1 @ model.B
    b_strict = -float(n1 @ drift)
    rows_le, rhs_le = [], []
    for i in p.vertex_facets[j]:
        if i == exit_facet:
            continue
        ni = p.normals[i]
        rows_le.append(ni @ model.B)
        rhs_le.append(-float(ni @ drift))
    return a_strict, b_strict, np.array(rows_le).reshape(-1, model.B.shape[1]), np.array(rhs_le)


def _fastest_control(model: AffineModel, p: Polytope, j: int, exit_facet: int, pu: Box,
                     spread: float):
    """Vertex j's fastest admissible control and its outward speed, with
    every row tightened by ``spread``.

    One LP maximizes n1ᵀ(A v_j + B u + c) over the input box and the
    invariance rows of _vertex_rows, each met with ``spread`` to spare; the
    speed is evaluated at the LP's control, less ``spread``. Returns
    (None, None) when no control in the box meets those rows.
    """
    a_st, b_st, rows, rhs = _vertex_rows(model, p, j, exit_facet)
    _, u = maximin_lp(a_st[None], [b_st], rows, rhs - spread, pu.lo, pu.hi)
    if u is None:
        return None, None
    n1 = p.normals[exit_facet]
    return u, float(n1 @ (model.A @ p.vertices[j] + model.B @ u + model.c)) - spread


def _vertex_certificate(model: AffineModel, p: Polytope, exit_facet: int, pu: Box,
                        spread, kind: str) -> Optional[ReachCertificate]:
    """Certificate in which every vertex j takes _fastest_control with
    spread[j] and leaves at a speed of at least DELTA_STRICT, or None.

    A box-only screen first caps each speed by n1ᵀ(A v_j + c) − spread[j]
    + Σ_k max(a_k lo_k, a_k hi_k), a = n1ᵀB, which no LP can exceed; if
    it passes, the vertex LPs run in order until one is too slow.
    """
    n1 = p.normals[exit_facet]
    a = n1 @ model.B
    w = (model.A @ p.vertices.T).T + model.c                         # A v_j + c
    top = (w * n1).sum(axis=1) + np.maximum(a * pu.lo, a * pu.hi).sum() - spread
    if (top < DELTA_STRICT).any():
        return None
    controls, margins = {}, {}
    for j in range(p.n_vertices):
        u, speed = _fastest_control(model, p, j, exit_facet, pu, spread[j])
        if u is None or speed < DELTA_STRICT:
            return None
        controls[j], margins[j] = u, speed
    return _certificate(p, exit_facet, kind, controls, margins, range(p.n_vertices))


def facet_reachable(model: AffineModel, p: Polytope, exit_facet: int,
                    pu: Box) -> Optional[ReachCertificate]:
    """Exact certificate for a known affine model, or None.

    Every vertex takes its fastest admissible control, which must leave
    through the exit facet at a speed of at least DELTA_STRICT.
    """
    return _vertex_certificate(model, p, exit_facet, pu, [0.0] * p.n_vertices, "exact")


# Closed-form decision of the relaxed vertex systems (m <= 3 inputs).
# A system is feasible when some candidate point violates no row by more
# than _FEAS_TOL and has a strict-row slack above DELTA_STRICT + _BAND, and
# infeasible when no candidate violating no row by more than _NEAR has a
# slack of DELTA_STRICT - _NEAR or more. Systems in between go to the
# tableau, whose own tolerances then decide the borderline cases.
_DET_TOL = 1e-12     # candidate rows this close to parallel define no point
_FEAS_TOL = 1e-9
_BAND = 1e-7
_NEAR = 1e-6


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


def _robust_rows(model: AffineModel, bounds: DeviationBounds, p: Polytope,
                 exit_facets, pu: Box):
    """Rows of the relaxed system of every (vertex j, exit facet f, sign
    pattern k), for the F facets of ``exit_facets`` at once.

    These are the best-case rows: each is loosened by what some in-bound
    model could gain, so infeasibility at a vertex refutes reachability
    for every in-bound model. The systems are C u ≤ d with
    C (m, R + 1, M, F, P) by input component and d (R + 1, M, F, P),
    where R = 2m + K. Rows 0..2m-1 bound u to the
    pattern's orthant of the input box; the next K are the facet rows of
    each vertex, where the exit facet and the padding of vertices with
    fewer facets are 0·u ≤ 1 (the mask ``real`` (K, M, F) marks the
    invariance rows); the last row is the strict row negated: a system is
    feasible iff some u meeting rows 0..R-1 has d[R] - C[:, R]·u ≥
    DELTA_STRICT. ``boxed`` (P,) is False for the patterns whose orthant
    misses the input box.
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
    S, cap_lo, cap_hi, box, pick = _pattern_tables(m, K)
    w = (model.A @ p.vertices.T).T + model.c                         # A v_j + c
    drift = (p.normals[idx] * w).sum(axis=2)                         # (K, M)
    drift_exit = (p.normals[exits][:, None] * w).sum(axis=2)         # (F, M)
    margin = bounds.eps_A * np.sqrt((p.vertices * p.vertices).sum(axis=1)) + bounds.eps_c
    NB = (p.normals @ model.B).T
    dB = -bounds.eps_B * S.T
    lo = np.maximum(pu.lo, cap_lo)
    hi = np.minimum(pu.hi, cap_hi)
    C = np.empty((m, 2 * m + K + 1, M, len(exits), S.shape[0]))
    d = np.empty(C.shape[1:])
    C[:, :2 * m] = box[:, :, None, None, None]
    d[:m] = hi.T[:, None, None]
    d[m:2 * m] = -lo.T[:, None, None]
    C[:, 2 * m:-1] = np.where(real[:, :, :, None],
                              NB[:, idx, None, None] + dB[:, None, None, None], 0.0)
    d[2 * m:-1] = np.where(real, (margin - drift)[:, :, None], 1.0)[..., None]
    C[:, -1] = (dB[:, None] - NB[:, exits, None])[:, None]
    d[-1] = (drift_exit + margin).T[:, :, None]
    return S, C, d, real, pick, (lo <= hi).all(axis=1)


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


def _closed_form_verdicts(C, d, pick, boxed):
    """Decide every (vertex, facet, pattern) system of m ≤ 3 inputs.

    The largest strict-row slack over the pattern's orthant of the input
    box intersected with the invariance half-spaces is attained at a
    vertex of that polytope, where m of its rows meet. Every such point is
    enumerated. Returns the masks (M, F, P) of the systems decided feasible
    and of the undecided ones.
    """
    m = C.shape[0]
    U = _solve_square([C[k][pick] for k in range(m)], d[pick])   # m x (Q, M, P)
    # box rows ±u_k ≤ d directly, the other rows by their coefficients
    viol = np.maximum(U[0] - d[0], -U[0] - d[m])
    for k in range(1, m):
        viol = np.maximum(viol, np.maximum(U[k] - d[k], -U[k] - d[m + k]))
    res = C[0, 2 * m:, None] * U[0]                             # (K + 1, Q, M, P)
    for k in range(1, m):
        res += C[k, 2 * m:, None] * U[k]
    res -= d[2 * m:, None]
    viol = np.maximum(viol, res[:-1].max(axis=0))
    slack = -res[-1]
    feasible = (np.where(viol <= _FEAS_TOL, slack, -np.inf).max(axis=0)
                > DELTA_STRICT + _BAND) & boxed
    near = np.where(viol <= _NEAR, slack, -np.inf).max(axis=0)
    undecided = (near >= DELTA_STRICT - _NEAR) & boxed & ~feasible
    return feasible, undecided


def predict_unreachable(model: AffineModel, bounds: DeviationBounds, p: Polytope,
                        exit_facets, pu: Box) -> list:
    """Per exit facet, True iff no affine model within the bounds can reach it.

    Holds when some vertex is infeasible even for the outward-relaxed
    (best-case) inequality system under every control sign pattern. The
    systems (m ≤ 3 inputs) are decided in closed form, all facets in one
    kernel call. Per facet, vertices are checked in order until one is
    refuted: a vertex without a pattern decided feasible has its undecided
    patterns solved by linear_feasible over that orthant in pattern order.
    """
    _, C, d, real, pick, boxed = _robust_rows(model, bounds, p, exit_facets, pu)
    m, _, M, F, _ = C.shape
    feasible, undecided = _closed_form_verdicts(C, d, pick, boxed)
    decided = feasible.tolist()

    def tableau_feasible(j, f):
        rows = [2 * m + r for r, ok in enumerate(real[:, j, f].tolist()) if ok]
        for k in np.flatnonzero(undecided[j, f]):
            prob = LinearFeasibilityProblem(
                A_le=C[:, rows, j, f, k].T, b_le=d[rows, j, f, k],
                A_ge_strict=-C[:, -1:, j, f, k].T, b_ge_strict=-d[-1:, j, f, k],
                lo=-d[m:2 * m, j, f, k], hi=d[:m, j, f, k],
            )
            if linear_feasible(prob) is not None:
                return True
        return False

    return [not all(True in decided[j][f] or tableau_feasible(j, f) for j in range(M))
            for f in range(F)]


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
    return [_vertex_certificate(model, p, fct, pu, spread, "predictive")
            for fct in exit_facets]


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
    n1 = p.normals[exit_facet]
    c1 = min(float(n1 @ (model.A @ p.vertices[j] + model.B @ controls[j] + model.c))
             for j in range(p.n_vertices))
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
        return _vertex_certificate(model, sub, exit_facet, pu, [0.0] * sub.n_vertices,
                                   "relaxed")

    p = box_to_polytope(cube)
    n1 = p.normals[exit_facet]
    controls, margins = {}, {}
    relaxed, exact = [], []
    u_abs = float(np.max(np.abs(np.concatenate([pu.lo, pu.hi]))))
    for j in range(p.n_vertices):
        u, speed = _fastest_control(model, p, j, exit_facet, pu, 0.0)
        if u is not None and speed >= DELTA_STRICT:
            controls[j], margins[j] = u, speed
            exact.append(j)
            continue
        drift = model.A @ p.vertices[j] + model.c
        # most outward-pointing velocity still admissible for invariance
        w = drift if u is None else drift + model.B @ u
        outward = float(n1 @ w)
        nw = float(np.linalg.norm(w))
        if outward >= 0.0 or nw < 1e-15:
            ang = 0.0
        else:
            ang = float(np.arcsin(min(1.0, -outward / nw)))
        if ang > theta_thre + 1e-12:
            return None
        # zero control at relaxed vertices; the remaining invariance rows
        # (n_i·drift = -rhs_i) must hold up to a tolerance commensurate with
        # the threshold angle
        _, _, _, rhs = _vertex_rows(model, p, j, exit_facet)
        tol = np.sin(theta_thre) * max(float(np.linalg.norm(drift)), 0.05 * u_abs)
        if np.any(-rhs > tol):
            return None
        controls[j] = np.zeros(pu.dim)
        margins[j] = float(n1 @ drift)
        relaxed.append(j)
    return _certificate(p, exit_facet, "relaxed" if relaxed else "exact", controls,
                        margins, exact, relaxed)
