"""Lipschitz-based bounds on the drift between local affine models.

If the drift Jacobian is L_df-Lipschitz and the input matrix is
L_g-Lipschitz, then two affine models linearized at x1 and x2 differ by at
most (eps_A, eps_B, eps_c) in the A, B, c parameters respectively.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box, dot


@dataclass(frozen=True)
class DeviationBounds:
    eps_A: float
    eps_B: float
    eps_c: float

    def __post_init__(self):
        if self.eps_A < 0 or self.eps_B < 0 or self.eps_c < 0:
            raise ValueError("deviation bounds must be nonnegative")

    @staticmethod
    def zero() -> "DeviationBounds":
        return DeviationBounds(0.0, 0.0, 0.0)


def _deviations(L_df: float, L_g: float, x1, X2):
    """(eps_A, eps_B, eps_c), each (N,), from x1 to every row of X2 (N, n)."""
    if L_df < 0 or L_g < 0:
        raise ValueError("Lipschitz constants must be nonnegative")
    x1 = np.asarray(x1, dtype=float)
    X2 = np.asarray(X2, dtype=float)
    diff = X2 - x1
    d = np.sqrt(dot(diff, diff))
    norm2 = np.sqrt(dot(X2, X2))
    return L_df * d, L_g * d, 0.5 * L_df * d * d + L_df * d * norm2


def deviation_bounds(L_df: float, L_g: float, x1, x2) -> DeviationBounds:
    """Parameter deviation between linearizations at x1 and x2."""
    eps = _deviations(L_df, L_g, x1, np.asarray(x2, dtype=float)[None])
    return DeviationBounds(*(float(e[0]) for e in eps))


def cell_pair_bounds(L_df: float, L_g: float, source_point, target_cell: Box) -> DeviationBounds:
    """Worst-case deviation from a linearization point to any point of a cell.

    Both the distance d and the norm term are convex in the target point,
    so the componentwise maxima occur at cell vertices.
    """
    eps = _deviations(L_df, L_g, source_point, target_cell.vertices())
    return DeviationBounds(*(max(0.0, float(e.max())) for e in eps))
