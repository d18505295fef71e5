"""Terminal controller inside the target cell: CLF-CBF quadratic program.

The Lyapunov function V = ½‖x − x*‖² drives the state toward the target
point while one affine barrier per cell facet keeps it inside the cell. Each
control step solves min ‖u‖² + δ² subject to the barrier rows (hard), the
Lyapunov decrease row softened by the slack δ ≥ 0, and the input box.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import AffineModel
from .geometry import Box
from .optim import QPResult, solve_qp


@dataclass
class TerminalParams:
    alpha: float = 1.0               # Lyapunov decrease rate
    kappa: float = 1.0               # barrier rate
    slack_weight: float = 1.0        # penalty on the Lyapunov slack


@dataclass
class TerminalStep:
    u: np.ndarray
    delta: float
    V: float
    min_barrier: float
    kkt_stationarity: float
    kkt_complementarity: float


def barrier_values(cell: Box, x) -> np.ndarray:
    """h_i(x) = b_i - n_iᵀx per facet; nonnegative inside the cell."""
    x = np.asarray(x, dtype=float)
    vals = np.empty(2 * cell.dim)
    vals[0::2] = x - cell.lo
    vals[1::2] = cell.hi - x
    return vals


def barrier_rows(model: AffineModel, cell: Box, x, kappa: float):
    """The stay-inside rows n_iᵀB u <= kappa h_i(x) - n_iᵀ(A x + c) of the
    cell's facets in facet-id order, as (rows, rhs): the lower facet of
    axis k has n = -e_k (barrier x_k - lo_k), the upper one n = +e_k
    (barrier hi_k - x_k)."""
    x = np.asarray(x, dtype=float)
    drift = model.A @ x + model.c
    h = kappa * barrier_values(cell, x)
    rows = np.stack([-model.B, model.B], axis=1).reshape(2 * cell.dim, -1)
    return rows, np.stack([h[0::2] + drift, h[1::2] + (-drift)], axis=1).ravel()


def clf_cbf_control(model: AffineModel, x, x_target, cell: Box, pu: Box,
                    params: TerminalParams) -> TerminalStep:
    """One CLF-CBF step at x.

    The slack δ makes the Lyapunov row satisfiable, so the program is
    infeasible only when the barrier rows cannot be met inside the input
    box; solve_qp then raises SolverError.
    """
    x = np.asarray(x, dtype=float)
    x_target = np.asarray(x_target, dtype=float)
    n, m = model.A.shape[0], model.B.shape[1]
    err = x - x_target
    V = 0.5 * float(err @ err)
    gradV = err
    drift = model.A @ x + model.c

    # rows over z = (u, delta): G z <= h, in the order Lyapunov row, the
    # barrier rows, the upper and lower bound of each input, delta >= 0
    G = np.zeros((2 * n + 2 * m + 2, m + 1))
    h = np.empty(2 * n + 2 * m + 2)
    G[0, :m] = gradV @ model.B
    G[0, m] = -1.0
    h[0] = -params.alpha * V - float(gradV @ drift)
    G[1:2 * n + 1, :m], h[1:2 * n + 1] = barrier_rows(model, cell, x, params.kappa)
    inputs = np.arange(m)
    G[2 * n + 1 + 2 * inputs, inputs] = 1.0
    G[2 * n + 2 + 2 * inputs, inputs] = -1.0
    h[2 * n + 1:-1:2] = pu.hi
    h[2 * n + 2:-1:2] = -pu.lo
    G[-1, m] = -1.0
    h[-1] = 0.0

    H = 2.0 * np.eye(m + 1)
    H[m, m] = 2.0 * params.slack_weight
    q = np.zeros(m + 1)
    res: QPResult = solve_qp(H, q, G, h)
    u = res.z[:m]
    delta = float(res.z[m])
    return TerminalStep(u=u, delta=delta, V=V,
                        min_barrier=float(np.min(barrier_values(cell, x))),
                        kkt_stationarity=res.kkt_stationarity,
                        kkt_complementarity=res.kkt_complementarity)
