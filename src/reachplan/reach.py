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
kernel solves them. The predictive functions take a list of questions
(model, bounds, polytope, exit facets) and build the systems of all of
them over one question axis, so a planner pass costs one refutation and
one certification call. Each decides only the systems its verdicts
depend on: a refutation decides the sign patterns one at a time, for the
exit facets that still have a vertex without a feasible pattern, and
certification drops every exit facet where a box bound on some vertex's
speed falls short of DELTA_STRICT before the kernel runs. A round, or a
certification call, is one kernel call. Exact and relaxed certification
take a cell's list of exit facets and ask them in one call of the same
builder (one batch of truncated pyramids for the relaxed heading facets,
one fastest-control call for the side facets).
No mission LP goes to the tableau simplex.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .deviation import DeviationBounds
from .dynamics import AffineModel
from .geometry import (Box, Polytope, box_to_polytope, dot, facet_axis_dir,
                       triangulate, truncated_pyramid, GeometryError)
from .optim import DELTA_STRICT, STATS


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


def _crossing_times(V, normals, speeds) -> list:
    """Per polytope with vertices V[e] (E, M, n) and exit normal normals[e]
    (E, n), the (bound, t_est) of a certificate whose certified speeds are
    speeds[e] (E, k): the margins of its exact vertices, or of every vertex
    when none is exact. ``bound`` divides the polytope's extent along the
    exit normal by the slowest of them and is (None, None) unless that
    speed exceeds DELTA_STRICT / 2. ``t_est`` divides it by their mean, a
    typical speed of the interpolated closed loop that is usually far above
    the slowest one."""
    proj = dot(V, normals[:, None])                                     # (E, M)
    means = dot(speeds, np.ones(speeds.shape[1])) / speeds.shape[1]     # sums in dot's order
    out = []
    for alpha, beta, c1, mean in zip(proj.min(axis=1).tolist(), proj.max(axis=1).tolist(),
                                     speeds.min(axis=1).tolist(), means.tolist()):
        if c1 > DELTA_STRICT / 2:
            out.append((ExitTimeBound(T0=(beta - alpha) / c1, alpha=alpha, beta=beta, c1=c1),
                        (beta - alpha) / mean))
        else:
            out.append((None, None))
    return out


def _box_screen(b: _Batch, pu: Box, spread) -> list:
    """The entries of the batch that the kernel might certify with
    spread[q, j]; every entry left out would come out None.

    With a = n_fᵀB and d_j = n_fᵀ(A v_j + c) − spread_j, vertex j's speed
    d_j + aᵀu is at most its box bound d_j + Σ_k max(a_k lo_k, a_k hi_k)
    for u in the input box; the invariance rows only lower it. The
    kernel's speed is the slack of a candidate within _FEAS_TOL of the
    box, rounded in 2m operations, so it exceeds the box bound by at most
    _FEAS_TOL·Σ_k|a_k| plus that rounding, and the bound as computed here
    has 2m + 1 roundings of its own (d_j is the kernel's, bit for bit).
    Each is at most 2⁻⁵³ of
    s_j = |d_j| + Σ_k |a_k|(max(|lo_k|, |hi_k|) + _FEAS_TOL), which stays
    finite for every model `reachplan certify` accepts (up to
    cli.MODEL_MAX). So an entry is left out only when some vertex's box
    bound plus _FEAS_TOL·Σ_k|a_k| + 1e-12·s_j, hundreds of times that
    rounding, is below DELTA_STRICT: no candidate gives that vertex a
    speed of DELTA_STRICT.
    """
    qe, fe = b.qe, b.fe
    d = dot(b.N[qe, fe][:, None], b.w[qe]) - spread[qe]                 # (E, M)
    a = b.NB[qe, fe]                                                    # (E, m)
    top = np.maximum(a * pu.lo, a * pu.hi).sum(axis=1)[:, None]
    reach_u = np.maximum(np.abs(pu.lo), np.abs(pu.hi)) + _FEAS_TOL
    size = np.abs(d) + (np.abs(a) * reach_u).sum(axis=1)[:, None]
    slop = _FEAS_TOL * np.abs(a).sum(axis=1)[:, None] + 1e-12 * size
    keep = (d + top + slop >= DELTA_STRICT).all(axis=1).tolist()
    return [e for e, k in enumerate(keep) if k]


def _vertex_certificates(b: _Batch, pu: Box, spread, kind: str) -> list:
    """Per entry of the batch, the certificate in which every vertex j
    takes its fastest admissible control with spread[q, j] and leaves at a
    speed of at least DELTA_STRICT, or None. Only the entries that pass
    _box_screen go to the kernel."""
    out = [None] * len(b.fe)
    live = _box_screen(b, pu, spread)
    if not live:
        return out
    u, speed = _fastest_controls(b, live, pu, spread)
    cols = [i for i, fast in enumerate((speed >= DELTA_STRICT).all(axis=0).tolist()) if fast]
    if cols:
        ok = [live[i] for i in cols]
        qs = [b.qe[e] for e in ok]
        uo = u[:, cols]                                              # (M, E', m)
        margins = (_speeds(b, ok, uo) - spread[qs].T).T               # (E', M)
        times = _crossing_times(b.V[qs], b.N[qs, [b.fe[e] for e in ok]], margins)
        for i, (e, q, (bound, t_est)) in enumerate(zip(ok, qs, times)):
            p = b.polys[q]
            out[e] = ReachCertificate(
                exit_facet=b.fe[e], controls=dict(enumerate(uo[:, i])), kind=kind,
                margins=dict(enumerate(margins[i].tolist())), polytope=p,
                exact_vertices=tuple(range(p.n_vertices)), bound=bound, t_est=t_est)
    return out


def _speeds(b: _Batch, entries, u):
    """n_fᵀ(w_j + B u_j) (M, E'), w_j = A v_j + c, of the listed entries of
    the batch under controls u (M, E', m)."""
    qs = [b.qe[e] for e in entries]
    w = b.w[qs].transpose(1, 0, 2) + dot(b.B[qs], u[:, :, None])
    return dot(b.N[qs, [b.fe[e] for e in entries]], w)


def facet_reachable(model: AffineModel, p: Polytope, exit_facets, pu: Box) -> list:
    """Per exit facet, the exact certificate for a known affine model, or
    None, from one batch of all the facets.

    Every vertex takes its fastest admissible control, which must leave
    through the exit facet at a speed of at least DELTA_STRICT.
    """
    return _ask([(model, None, p, exit_facets)], lambda b, _: _vertex_certificates(
        b, pu, np.zeros(b.norms.shape), "exact"))[0]


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


class _Batch:
    """Questions (models[q], polys[q], facets[q]) stacked on a question
    axis. Entry e is exit facet fe[e] of question qe[e], in question order.
    Every polytope is a box of one dimension n or a truncated pyramid
    built from one (geometry.boxes_to_polytopes), so all share the first
    one's vertex-facet table and each vertex lies on n facets. Holds what
    the rows of every entry share: V (Q, M, n), the vertex norms ‖v_j‖
    (Q, M), N (Q, I, n), B (Q, n, m), w = A v_j + c (Q, M, n), the facet
    drifts n_iᵀw_j of that table (Q, K, M) and N B (Q, I, m)."""

    def __init__(self, models, polys, facets):
        self.polys = list(polys)
        self.sizes = [len(fs) for fs in facets]
        self.qe = [q for q, fs in enumerate(facets) for _ in fs]
        self.fe = [f for fs in facets for f in fs]
        # (K, M): row k holds the k-th facet of every vertex
        self.idx = np.array(polys[0].vertex_facets).T
        self.V = np.stack([p.vertices for p in polys])
        self.N = np.stack([p.normals for p in polys])
        self.B = np.stack([mo.B for mo in models])
        self.norms = np.sqrt(dot(self.V, self.V))
        self.w = (dot(np.stack([mo.A for mo in models])[:, None], self.V[:, :, None])
                  + np.stack([mo.c for mo in models])[:, None])
        self.drift = dot(self.N[:, self.idx], self.w[:, None])
        self.NB = dot(self.N[:, :, None], self.B.transpose(0, 2, 1)[:, None])

    def split(self, values) -> list:
        """Per-entry values as one list per question."""
        out, start = [], 0
        for size in self.sizes:
            out.append(values[start:start + size])
            start += size
        return out


def _vertex_systems(b: _Batch, entries, lo, hi, margin, dB):
    """(C, d, pick): the systems C u ≤ d of every (vertex j, entry e,
    pattern k) of the batch entries listed in ``entries``, with
    C (m, R + 1, M, E, P) by input component, d (R + 1, M, E, P) and
    R = 2m + K; P patterns of lo, hi (P, m), margin (Q, M) and
    dB (Q, m, P). Rows 0..2m-1 bound u to [lo_k, hi_k]. The next K are
    each vertex's facet rows n_iᵀ(A v_j + B u + c) + dB_kᵀu ≤ margin_j,
    where the exit facet's is 0·u ≤ 1. The last row is the strict row
    negated: its slack d[R] - C[:, R]·u is
    n1ᵀ(A v_j + B u + c) - dB_kᵀu + margin_j.
    """
    # The mask is built in Python: integer ufuncs and argmax are not used
    # elsewhere in a mission, and touching their code first here would
    # raise its peak RSS.
    m = b.NB.shape[2]
    qe, fe = [b.qe[e] for e in entries], [b.fe[e] for e in entries]
    real = np.array([[[i != f for f in fe] for i in row] for row in b.idx.tolist()],
                    dtype=bool)                                        # (K, M, E)
    idx = b.idx
    K, M = idx.shape
    _, _, _, box, pick = _pattern_tables(m, K)
    drift_exit = dot(b.N[qe, fe][:, None], b.w[qe])                     # (E, M)
    dBe = dB[qe].transpose(1, 0, 2)                                     # (m, E, P)
    C = np.empty((m, 2 * m + K + 1, M, len(fe), lo.shape[0]))
    d = np.empty(C.shape[1:])
    C[:, :2 * m] = box[:, :, None, None, None]
    d[:m] = hi.T[:, None, None]
    d[m:2 * m] = -lo.T[:, None, None]
    C[:, 2 * m:-1] = np.where(real[..., None], b.NB[qe][:, idx].transpose(3, 1, 2, 0)[..., None]
                              + dBe[:, None, None], 0.0)
    d[2 * m:-1] = np.where(real, (margin[qe][:, None] - b.drift[qe]).transpose(1, 2, 0),
                           1.0)[..., None]
    C[:, -1] = (dBe - b.NB[qe, fe].T[:, :, None])[:, None]
    d[-1] = (drift_exit + margin[qe]).T[:, :, None]
    return C, d, pick


def _robust_rows(b: _Batch, bounds, pu: Box):
    """(rows, boxed): the arguments (lo, hi, margin, dB) of _vertex_systems
    for every sign pattern s_k, over its orthant of the input box
    (``boxed`` (P,) is False where that is empty), with every row of
    question q loosened by what a model within bounds[q] could gain:
    margin_j = eps_A‖v_j‖ + eps_c, dB_k = -eps_B·s_k. So infeasibility at a
    vertex refutes every in-bound model."""
    S, cap_lo, cap_hi, _, _ = _pattern_tables(pu.dim, len(b.idx))
    eps = np.array([[e.eps_A, e.eps_B, e.eps_c] for e in bounds])
    margin = eps[:, :1] * b.norms + eps[:, 2:]
    lo = np.maximum(pu.lo, cap_lo)
    hi = np.minimum(pu.hi, cap_hi)
    return (lo, hi, margin, -eps[:, 1, None, None] * S.T), (lo <= hi).all(axis=1)


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


def _closed_form_verdicts(C, d, pick):
    """Decide every system of m ≤ 3 inputs in the layout of
    _vertex_systems and find its best corner, in one kernel call.

    The largest strict-row slack over a system's box and invariance rows
    is attained where m of its rows meet (fixed-dimension LP after Megiddo,
    JACM 1984, and Seidel, DCG 1991), and every such point is enumerated.
    The best corner is the candidate within _FEAS_TOL of every row with the
    largest slack. Tie rule: among the candidates within _TIE·max(1, |best|)
    of that slack, take the lexicographically smallest u (least u_0, then
    least u_1, ...). Returns (possible, u, slack): the mask (M, E, P) of
    the systems that some candidate within _NEAR of every row meets with a
    slack of DELTA_STRICT - _NEAR or more, and each best corner
    u (m, M, E, P) with its slack, NaN and -inf without a candidate. A
    system whose box rows leave no control (an empty orthant) can still
    come out possible within the tolerances, so a caller skips those.
    """
    STATS.kernel_calls += 1
    STATS.kernel_systems += d[0].size
    m = C.shape[0]
    U = _solve_square([C[k][pick] for k in range(m)], d[pick])   # m x (Q, M, E, P)
    # box rows ±u_k ≤ d directly, the other rows by their coefficients
    viol = np.maximum(U[0] - d[0], -U[0] - d[m])
    for k in range(1, m):
        viol = np.maximum(viol, np.maximum(U[k] - d[k], -U[k] - d[m + k]))
    res = C[0, 2 * m:, None] * U[0]                             # (K + 1, Q, M, E, P)
    for k in range(1, m):
        res += C[k, 2 * m:, None] * U[k]
    res -= d[2 * m:, None]
    viol = np.maximum(viol, res[:-1].max(axis=0))
    slack = -res[-1]
    ok = viol <= _FEAS_TOL
    best = np.where(ok, slack, -np.inf).max(axis=0)
    near = np.where(viol <= _NEAR, slack, -np.inf).max(axis=0)
    possible = near >= DELTA_STRICT - _NEAR
    tied = ok & (slack >= best - _TIE * np.maximum(1.0, np.abs(best)))
    u = []
    for k in range(m):
        low = np.where(tied, U[k], np.inf).min(axis=0)
        tied &= U[k] == low
        u.append(low)
    return (possible, np.where(best > -np.inf, u, np.nan),
            np.where(tied, slack, -np.inf).max(axis=0))


def _fastest_controls(b: _Batch, entries, pu: Box, spread):
    """(u (M, E, m), speed (M, E)) over the listed entries: vertex j's
    control for entry e maximizes its speed
    n_fᵀ(A v_j + B u + c) - spread[q, j] over the input box and its rows
    n_iᵀ(A v_j + B u + c) + spread[q, j] ≤ 0; u NaN, speed -inf without
    one. The speed is the kernel's slack, which _speeds matches to
    rounding.
    """
    _, u, speed = _closed_form_verdicts(*_vertex_systems(
        b, entries, pu.lo[None], pu.hi[None], -spread, np.zeros((len(b.polys), pu.dim, 1))))
    return u[..., 0].transpose(1, 2, 0), speed[..., 0]


def fastest_control(a, rows, rhs, pu: Box):
    """Control u in the input box with rows·u ≤ rhs and the largest aᵀu
    (m ≤ 3 inputs), by the kernel and tie rule of _closed_form_verdicts,
    or None when no control in the box meets the rows."""
    _, _, _, box, pick = _pattern_tables(pu.dim, len(rhs))
    C = np.hstack([box, rows.T, -a[:, None]])
    d = np.concatenate([pu.hi, -pu.lo, rhs, [0.0]])
    _, u, slack = _closed_form_verdicts(C[:, :, None, None, None], d[:, None, None, None], pick)
    return u[:, 0, 0, 0] if slack[0, 0, 0] > -np.inf else None


def _ask(questions, decide) -> list:
    """Per question (model, bounds, polytope, exit facets), the list of
    what decide(batch, bounds) returns for its exit facets, from one batch
    of all questions; no kernel call when no facet is asked."""
    if not any(len(q[3]) for q in questions):
        return [[] for _ in questions]
    models, bounds, polys, facets = zip(*questions)
    b = _Batch(models, polys, facets)
    return b.split(decide(b, bounds))


def predict_unreachable(questions, pu: Box) -> list:
    """Per question (model, bounds, polytope, exit facets), one list with
    True for each exit facet that no affine model within the bounds can
    reach.

    Holds when some vertex is infeasible even for the outward-relaxed
    (best-case) inequality system under every control sign pattern. The
    systems of every question (m ≤ 3 inputs) are decided in closed form,
    one sign pattern at a time in _pattern_tables order: each round
    decides only the entries that still have a vertex without a feasible
    pattern, and a pattern whose orthant misses the input box is skipped
    without a kernel call. A system the kernel cannot rule out counts as
    feasible, so only certain infeasibility refutes. The polytopes must
    share one vertex-facet table (boxes of one dimension do).
    """
    def refuted(b, bounds):
        (lo, hi, margin, dB), boxed = _robust_rows(b, bounds, pu)
        # per entry, the vertices with no feasible pattern among those decided
        pending = [list(range(b.V.shape[1])) for _ in b.fe]
        for k, fits in enumerate(boxed.tolist()):
            entries = [e for e, js in enumerate(pending) if js]
            if not entries:
                break
            if fits:
                verdicts, _, _ = _closed_form_verdicts(*_vertex_systems(
                    b, entries, lo[k:k + 1], hi[k:k + 1], margin, dB[..., k:k + 1]))
                possible = verdicts[..., 0].tolist()
                for i, e in enumerate(entries):
                    pending[e] = [j for j in pending[e] if not possible[j][i]]
        return [bool(js) for js in pending]
    return _ask(questions, refuted)


def predict_reachable(questions, pu: Box) -> list:
    """Per question (model, bounds, polytope, exit facets), one list with,
    per exit facet, a certificate valid for every affine model within the
    bounds, or None.

    Built like an exact certificate, with every row of vertex j tightened
    by _robust_spread's bound on how far an in-bound model can move it, so
    its margins are robust outward speeds and its bound and t_est follow
    from them. All questions share one kernel pass, which decides only the
    exit facets that _box_screen leaves: the others cannot reach
    DELTA_STRICT at some vertex even with the best input in the box. The
    polytopes must share one vertex-facet table.
    """
    return _ask(questions, lambda b, bounds: _vertex_certificates(
        b, pu, _robust_spread(bounds, b.norms, pu), "predictive"))


# Containment tolerance of locate_simplex, and the band around it in which
# a weight from the stacked inverses is not trusted. Near the tolerance
# those weights differ from the exact Simplex.barycentric solve by about
# 1e-15, also on thin boxes and steep truncated pyramids.
LOCATE_TOL = 1e-9
LOCATE_BAND = 1e-10


@dataclass
class PWAController:
    """Piecewise-affine feedback u = F_l x + g_l on a triangulated polytope.

    Every Kuhn simplex of ``triangulate`` starts at vertex v0 (code 0), so
    the barycentric weights of x in all n! simplices are one product,
    ``bary @ (x - v0) + unit``: block l of n+1 rows holds the inverse edge
    matrix of simplex l under the row that gives its v0 weight. A weight
    within LOCATE_BAND of the tolerance, or a point outside the polytope,
    takes the exact path: every simplex's barycentric system solved as
    Simplex.barycentric solves it, in one stacked solve over ``edges``.
    So the chosen simplex is always the one locate_simplex (lowest index
    on ties) or, outside, the least-violating rule picks.
    """

    simplices: list
    gains: list          # (F, g) per simplex
    origin: np.ndarray = field(init=False, repr=False)
    bary: np.ndarray = field(init=False, repr=False)
    unit: np.ndarray = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.origin = self.simplices[0].vertices[0]
        edges, blocks = [], []
        for s in self.simplices:
            edges.append((s.vertices[1:] - s.vertices[0]).T)
            inv = np.linalg.inv(edges[-1])
            blocks.append(np.vstack([-inv.sum(axis=0), inv]))
        self.edges = np.stack(edges)
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
        # the exact path, with the weights of locate_simplex: the first
        # simplex that holds x, else (x outside the polytope, as in the
        # rollout past a crossing) the least-violating one; b is a stack of
        # one-column matrices, a signature numpy 1.x and 2.x read alike
        k, n = self.edges.shape[:2]
        b = np.broadcast_to(x - self.origin, (k, n))[..., None]
        rest = np.linalg.solve(self.edges, b)[..., 0]
        low = np.minimum(1.0 - rest.sum(axis=1), rest.min(axis=1))
        inside = np.flatnonzero(low >= -LOCATE_TOL)
        return int(inside[0]) if inside.size else int(np.argmax(low))

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


def exit_time_bound(model: AffineModel, p: Polytope, controls: dict,
                    exit_facet: int) -> ExitTimeBound:
    """Guaranteed crossing-time bound (beta - alpha) / c1 for vertex
    controls, c1 the minimum outward speed over the vertices."""
    u = np.array([controls[j] for j in range(p.n_vertices)], dtype=float)[:, None]
    speeds = _speeds(_Batch([model], [p], [[exit_facet]]), [0], u).T
    bound, _ = _crossing_times(p.vertices[None], p.normals[[exit_facet]], speeds)[0]
    if bound is None:
        raise ValueError(f"degenerate exit-time bound: c1 = {speeds.min()}")
    return bound


def _robust_spread(bounds, norms, pu: Box):
    """(Q, M): per question q and vertex j with norm norms[q, j] = ‖v_j‖,
    eps_A·‖v_j‖ + eps_B·U_max + eps_c of bounds[q], how far an in-bound
    model can move n·(A v_j + B u + c) for a unit normal n and any u in the
    input box, whose largest vertex norm is U_max."""
    corners = pu.vertices()
    u_max = float(np.sqrt(dot(corners, corners)).max())
    eps = np.array([[e.eps_A, e.eps_B, e.eps_c] for e in bounds])
    return eps[:, :1] * norms + eps[:, 1:2] * u_max + eps[:, 2:]


def robust_exit_time_bound(model: AffineModel, bounds: DeviationBounds,
                           p: Polytope, exit_facet: int, pu: Box) -> Optional[ExitTimeBound]:
    """Exit-time bound valid for every in-bound model: the bound of the
    predictive certificate for ``exit_facet``, or None without one."""
    cert = predict_reachable([(model, bounds, p, [exit_facet])], pu)[0][0]
    return None if cert is None else cert.bound


def relaxed_facet_reachable(model: AffineModel, cube: Box, exit_facets, pu: Box,
                            theta_thre: float, shrink: float = 0.5) -> list:
    """Underactuated relaxation for a cell whose last state axis is the
    heading: per exit facet, a certificate or None.

    Facets normal to the heading axis: certify on a truncated-pyramid
    subpolytope (opposite facet scaled by ``shrink``), all in one batch,
    as the pyramids share the box's vertex-facet table; the certificate is
    only valid inside that subpolytope. Side facets share one
    fastest-control call over the box: vertices failing the exact rows are
    accepted with u_j = 0 when the achievable flow cone is within
    ``theta_thre`` of the exit normal on both extremes.
    """
    axis = cube.dim - 1
    heading = [f for f in exit_facets if facet_axis_dir(f)[0] == axis]
    found = _ask([(model, None, truncated_pyramid(cube, axis, facet_axis_dir(f)[1], shrink), [f])
                  for f in heading],
                 lambda b, _: _vertex_certificates(b, pu, np.zeros(b.norms.shape), "relaxed"))
    out = {f: cert for f, (cert,) in zip(heading, found)}
    sides = [f for f in exit_facets if f not in out]
    if sides:
        b = _Batch([model], [box_to_polytope(cube)], [sides])
        u, speed = _fastest_controls(b, list(range(len(sides))), pu, np.zeros(b.norms.shape))
        out.update((f, _side_certificate(b, e, u, speed, pu, theta_thre))
                   for e, f in enumerate(sides))
    return [out[f] for f in exit_facets]


def _side_certificate(b: _Batch, e: int, u, speed, pu: Box,
                      theta_thre: float) -> Optional[ReachCertificate]:
    """The relaxed certificate of entry e of a one-box batch, a side facet,
    from the fastest controls u (M, E, m) and speeds (M, E) of every entry,
    or None."""
    p, fct = b.polys[0], b.fe[e]
    n1 = p.normals[fct]
    drift = b.w[0]                                                      # A v_j + c
    # most outward-pointing velocity still admissible for invariance; its
    # speed outward is _speeds' at the exact vertices
    w = np.where(speed[:, e:e + 1] > -np.inf, drift + dot(b.B[0], u[:, e:e + 1]), drift)
    outward, along = dot(n1, w).tolist(), dot(n1, drift).tolist()
    w_norm, drift_norm = np.sqrt(dot(w, w)).tolist(), np.sqrt(dot(drift, drift)).tolist()
    controls, margins = {}, {}
    relaxed, exact = [], []
    u_abs = float(np.max(np.abs(np.concatenate([pu.lo, pu.hi]))))
    for j in range(p.n_vertices):
        if speed[j, e] >= DELTA_STRICT:
            controls[j], margins[j] = u[j, e], outward[j]
            exact.append(j)
            continue
        if outward[j] >= 0.0 or w_norm[j] < 1e-15:
            ang = 0.0
        else:
            ang = float(np.arcsin(min(1.0, -outward[j] / w_norm[j])))
        if ang > theta_thre + 1e-12:
            return None
        # zero control at relaxed vertices; the remaining invariance rows
        # (n_i·drift) must hold up to a tolerance commensurate with the
        # threshold angle
        tol = np.sin(theta_thre) * max(drift_norm[j], 0.05 * u_abs)
        if any(b.drift[0, k, j] > tol for k, i in enumerate(p.vertex_facets[j]) if i != fct):
            return None
        controls[j] = np.zeros(pu.dim)
        margins[j] = along[j]
        relaxed.append(j)
    (bound, t_est), = _crossing_times(p.vertices[None], p.normals[[fct]],
                                      np.array([[margins[j] for j in exact or margins]]))
    return ReachCertificate(exit_facet=fct, controls=controls,
                            kind="relaxed" if relaxed else "exact", margins=margins, polytope=p,
                            relaxed_vertices=tuple(relaxed), exact_vertices=tuple(exact),
                            bound=bound, t_est=t_est)
