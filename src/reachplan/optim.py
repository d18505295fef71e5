"""Dense small-scale LP and QP solvers: the terminal controller's QP and
the test reference LP.

Linear programs are solved by a two-phase tableau simplex with Bland's
rule (deterministic and cycle-free). A mission solves none: every vertex
LP goes to the closed-form kernel in ``reach``, and the tableau stays as
the reference that kernel is tested against. Strictly convex quadratic
programs are solved by enumerating candidate active sets and returning
the first KKT-consistent point, or raising SolverError when none is
feasible. Strict inequalities are margins of at least DELTA_STRICT.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DELTA_STRICT = 1e-6
_SIMPLEX_TOL = 1e-9
_MAX_PIVOTS = 20000


class SolverError(RuntimeError):
    """Numerical failure, reported distinctly from plain infeasibility."""


class Stats:
    """Global solver-call counters for run summaries: tableau LPs, QPs, and
    the calls of the closed-form vertex-system kernel in ``reach`` with the
    systems they decided."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.lp_calls = 0
        self.qp_calls = 0
        self.kernel_calls = 0
        self.kernel_systems = 0


STATS = Stats()


def _simplex(T, basis, n_total, n_rows):
    """Minimize the tableau objective in place with Bland's rule."""
    for _ in range(_MAX_PIVOTS):
        # entering: lowest index with negative reduced cost
        enter = -1
        for j in range(n_total):
            if T[-1, j] < -_SIMPLEX_TOL:
                enter = j
                break
        if enter < 0:
            return
        # leaving: min ratio, ties by lowest basis variable index
        best = -1
        best_ratio = np.inf
        for i in range(n_rows):
            if T[i, enter] > _SIMPLEX_TOL:
                ratio = T[i, -1] / T[i, enter]
                if ratio < best_ratio - _SIMPLEX_TOL or (
                    ratio < best_ratio + _SIMPLEX_TOL
                    and (best < 0 or basis[i] < basis[best])
                ):
                    best, best_ratio = i, ratio
        if best < 0:
            raise SolverError("unbounded LP (should not occur with box bounds)")
        piv = T[best, enter]
        T[best, :] /= piv
        for i in range(n_rows + 1):
            if i != best and abs(T[i, enter]) > 0:
                T[i, :] -= T[i, enter] * T[best, :]
        basis[best] = enter
    raise SolverError("simplex pivot limit exceeded")


def solve_lp(c, A, b, lo, hi):
    """min cᵀx  s.t.  A x ≤ b,  lo ≤ x ≤ hi (finite bounds).

    Returns (status, x, objective) with status in {"optimal", "infeasible"}.
    """
    c = np.asarray(c, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = c.size
    if A is None or len(A) == 0:
        A = np.zeros((0, n))
        b = np.zeros(0)
    A = np.asarray(A, dtype=float).reshape(-1, n)
    b = np.asarray(b, dtype=float)
    if np.any(~np.isfinite(lo)) or np.any(~np.isfinite(hi)) or np.any(hi < lo - 1e-12):
        raise SolverError("box bounds must be finite with lo <= hi")

    # shift y = x - lo >= 0; upper-bound rows y <= hi - lo
    span = hi - lo
    M = np.vstack([A, np.eye(n)])
    r = np.concatenate([b - A @ lo, span])
    k = M.shape[0]

    # orient rows so all right-hand sides are nonnegative
    neg = r < 0
    M[neg] *= -1.0
    r = np.where(neg, -r, r)
    slack_sign = np.where(neg, -1.0, 1.0)

    n_slack = k
    art_rows = np.where(neg)[0]
    n_art = art_rows.size
    n_total = n + n_slack + n_art
    T = np.zeros((k + 1, n_total + 1))
    T[:k, :n] = M
    for i in range(k):
        T[i, n + i] = slack_sign[i]
    basis = [0] * k
    art_col = {}
    ai = 0
    for i in range(k):
        if slack_sign[i] > 0:
            basis[i] = n + i
        else:
            col = n + n_slack + ai
            T[i, col] = 1.0
            basis[i] = col
            art_col[i] = col
            ai += 1
    T[:k, -1] = r

    if n_art > 0:
        # phase 1: minimize the sum of artificials
        for i in range(k):
            if basis[i] >= n + n_slack:
                T[-1, :] -= T[i, :]
        T[-1, n + n_slack:n_total] += 1.0
        _simplex(T, basis, n_total, k)
        if T[-1, -1] < -1e-7:
            return "infeasible", None, None
        # pivot lingering artificials out of the basis where possible
        for i in range(k):
            if basis[i] >= n + n_slack:
                piv_col = -1
                for j in range(n + n_slack):
                    if abs(T[i, j]) > 1e-8:
                        piv_col = j
                        break
                if piv_col >= 0:
                    pv = T[i, piv_col]
                    T[i, :] /= pv
                    for r2 in range(k + 1):
                        if r2 != i and abs(T[r2, piv_col]) > 0:
                            T[r2, :] -= T[r2, piv_col] * T[i, :]
                    basis[i] = piv_col
        T[:, n + n_slack:n_total] = 0.0

    # phase 2 objective
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(k):
        if basis[i] < n + n_slack and abs(T[-1, basis[i]]) > 0:
            T[-1, :] -= T[-1, basis[i]] * T[i, :]
    _simplex(T, basis, n + n_slack, k)

    y = np.zeros(n)
    for i in range(k):
        if basis[i] < n:
            y[basis[i]] = T[i, -1]
    x = y + lo
    return "optimal", x, float(c @ x)


@dataclass
class LinearFeasibilityProblem:
    """Mixed strict/non-strict linear rows over a box of controls.

    Non-strict rows: a_kᵀu ≤ b_k. Strict rows: a_kᵀu ≥ b_k + DELTA_STRICT.
    The box lo ≤ u ≤ hi must not be empty.
    """

    A_le: np.ndarray
    b_le: np.ndarray
    A_ge_strict: np.ndarray
    b_ge_strict: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def linear_feasible(p: LinearFeasibilityProblem):
    """Feasible point or None."""
    STATS.lp_calls += 1
    n = p.lo.size
    lo = np.asarray(p.lo, dtype=float)
    hi = np.asarray(p.hi, dtype=float)
    A_le = np.asarray(p.A_le, dtype=float).reshape(-1, n)
    b_le = np.asarray(p.b_le, dtype=float)
    A_st = np.asarray(p.A_ge_strict, dtype=float).reshape(-1, n)
    b_st = np.asarray(p.b_ge_strict, dtype=float)
    A = np.vstack([A_le, -A_st])
    b = np.concatenate([b_le, -(b_st + DELTA_STRICT)])
    status, x, _ = solve_lp(np.zeros(n), A, b, lo, hi)
    if status != "optimal":
        return None
    return x


def feasibility_residual(p: LinearFeasibilityProblem, u) -> float:
    """Largest violation of any row at u (<= 0 means feasible)."""
    u = np.asarray(u, dtype=float)
    res = -np.inf
    if p.A_le.size:
        res = max(res, float(np.max(p.A_le @ u - p.b_le)))
    if p.A_ge_strict.size:
        res = max(res, float(np.max(p.b_ge_strict + DELTA_STRICT - p.A_ge_strict @ u)))
    res = max(res, float(np.max(p.lo - u)), float(np.max(u - p.hi)))
    return res


def maximin_lp(obj_rows, obj_rhs, A_le, b_le, lo, hi):
    """max over z of min_k (obj_rows_k · z − obj_rhs_k) subject to
    A_le z ≤ b_le and box bounds, via the epigraph variable t.

    Returns (t, z) or (None, None) when infeasible.
    """
    STATS.lp_calls += 1
    obj_rows = np.asarray(obj_rows, dtype=float)
    obj_rhs = np.asarray(obj_rhs, dtype=float)
    n = lo.size
    K = obj_rows.shape[0]
    scale = float(np.max(np.abs(obj_rhs))) if obj_rhs.size else 1.0
    scale += float(np.max(np.abs(obj_rows))) * float(np.max(np.abs(np.stack([lo, hi])))) * n
    m_le = np.asarray(A_le, dtype=float).reshape(-1, n) if A_le is not None else np.zeros((0, n))
    r_le = np.asarray(b_le, dtype=float) if b_le is not None else np.zeros(0)
    A = np.zeros((K + m_le.shape[0], n + 1))
    b = np.zeros(A.shape[0])
    A[:K, :n] = -obj_rows
    A[:K, n] = 1.0
    b[:K] = -obj_rhs
    A[K:, :n] = m_le
    b[K:] = r_le
    c = np.zeros(n + 1)
    c[n] = -1.0
    status, z, _ = solve_lp(c, A, b,
                            np.concatenate([lo, [-scale - 1.0]]),
                            np.concatenate([hi, [scale + 1.0]]))
    if status != "optimal":
        return None, None
    return float(z[n]), z[:n]


@dataclass
class QPResult:
    z: np.ndarray
    active: list
    kkt_stationarity: float
    kkt_complementarity: float


def solve_qp(H, q, G, h) -> QPResult:
    """min ½ zᵀH z + qᵀz  s.t.  G z ≤ h, for strictly convex small QPs.

    Enumerates candidate active sets of size ≤ n in lexicographic order
    and returns the first KKT-consistent point (unique global optimum by
    strict convexity). Deterministic and cycle-free; intended for the
    (m+1)-variable programs arising here, not for large problems.
    """
    STATS.qp_calls += 1
    H = np.asarray(H, dtype=float)
    q = np.asarray(q, dtype=float)
    G = np.asarray(G, dtype=float).reshape(-1, q.size)
    h = np.asarray(h, dtype=float)
    n = q.size
    K = G.shape[0]
    lam_tol = 1e-9

    def try_subset(sub):
        k = len(sub)
        if k == 0:
            z = np.linalg.solve(H, -q)
            lam = np.zeros(0)
        else:
            Gs = G[list(sub)]
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = H
            kkt[:n, n:] = Gs.T
            kkt[n:, :n] = Gs
            rhs = np.concatenate([-q, h[list(sub)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(sol)):
                return None
            z, lam = sol[:n], sol[n:]
            if np.min(lam) < -lam_tol:
                return None
        res = G @ z - h if K else np.zeros(0)
        if K and np.max(res) > 1e-8:
            return None
        lam_full = np.zeros(K)
        for idx, kk in enumerate(sub):
            lam_full[kk] = max(lam[idx], 0.0)
        stat = float(np.linalg.norm(H @ z + q + (G.T @ lam_full if K else 0.0), np.inf))
        if stat > 1e-7 * max(1.0, float(np.linalg.norm(q, np.inf))):
            return None
        comp = float(np.max(np.abs(lam_full * res))) if K else 0.0
        return QPResult(z=z, active=list(sub), kkt_stationarity=stat,
                        kkt_complementarity=comp)

    from itertools import combinations
    for size in range(0, n + 1):
        for sub in combinations(range(K), size):
            res = try_subset(sub)
            if res is not None:
                return res
    raise SolverError("no KKT-consistent active set found (QP infeasible?)")
