"""Local affine identification by small-signal excitation + least squares.

The plant is excited with a short sequence of constant inputs; each input
is held for one sampling period, the derivative is approximated by a
forward difference, and a least-squares fit of [A B c] against the stacked
regressor recovers the local affine parameters. The state is not reset
between excitations (it drifts); the regressor records the midpoint state
of each sample, and the caller gets the state where the excitation ended
and the time it ran.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import AffineModel, TrueSystem, _rk4_step
from .geometry import Box


@dataclass
class ExcitationPlan:
    inputs: list
    period: float
    amplitude: float

    @staticmethod
    def default(pu: Box, m: int, period: float = 1e-3, n: int = None) -> "ExcitationPlan":
        """Zero input plus ±a·e_i with a = 0.1 × the input-box half-width,
        cycled to K = n + m + 2 samples for a full-rank regressor.
        """
        half_width = float(np.min(0.5 * (pu.hi - pu.lo)))
        a = 0.1 * half_width
        base = [np.zeros(m)]
        for i in range(m):
            e = np.zeros(m)
            e[i] = a
            base.append(e.copy())
            base.append(-e)
        K = (n if n is not None else m) + m + 2
        inputs = [base[k % len(base)].copy() for k in range(max(K, len(base)))]
        return ExcitationPlan(inputs=inputs, period=period, amplitude=a)


def identify_affine(s: TrueSystem, x0, plan: ExcitationPlan, cell: Optional[Box] = None
                    ) -> tuple[Optional[AffineModel], np.ndarray, float]:
    """Run the excitation plan from x0 and fit an affine model.

    Each input is held for one period, integrated with 10 RK4 substeps, and
    the forward difference (x_next - x)/T serves as the derivative sample.
    Returns (model, state at the end of the plan, len(plan.inputs)·T), or
    (None, the first sampled state outside ``cell``, (k + 1)·T) when a cell
    is given and the state leaves it in period k; the excitation stops
    there.
    """
    x = np.asarray(x0, dtype=float).tolist()
    T = plan.period
    rows_x = []
    rows_dx = []
    for k, u in enumerate(plan.inputs):
        u = np.asarray(u, dtype=float).tolist()
        x_next = x
        h = T / 10
        for _ in range(10):
            x_next = _rk4_step(s, x_next, u, h)
        if cell is not None and not cell.contains(x_next, tol=1e-9):
            return None, np.array(x_next), (k + 1) * T
        # the forward difference matches the derivative at the midpoint
        # state to second order, so regress against the midpoint
        rows_x.append([0.5 * (a + b) for a, b in zip(x, x_next)] + u + [1.0])
        rows_dx.append([(b - a) / T for a, b in zip(x, x_next)])
        x = x_next

    X = np.array(rows_x)            # (K, n+m+1)
    Xdot = np.array(rows_dx)        # (K, n)
    # the regressor is badly scaled (states move by O(T) between samples),
    # so solve through the SVD; directions below the cutoff are pure
    # integration noise and would blow up the parameters if retained
    theta = np.linalg.lstsq(X, Xdot, rcond=1e-7)[0].T
    n, m = s.n, s.m
    A = theta[:, :n]
    B = theta[:, n:n + m]
    c = theta[:, n + m]
    model = AffineModel(A=A, B=B, c=c, linearization_point=np.asarray(x0, float))
    return model, np.array(x), len(plan.inputs) * T
