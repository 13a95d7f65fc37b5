"""Numerical moment extraction from Laplace transforms (validation aid).

The closed-form busy-period moments in :mod:`repro.busy_periods` are
cross-checked against direct numerical differentiation of the transforms.
We use high-order central finite differences on ``f(s) = L(s)`` at ``s = h``
scaled to the distribution's mean, which is accurate enough (1e-6 relative)
to catch any algebra mistake in the closed forms.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["moments_from_laplace"]


def moments_from_laplace(
    laplace: Callable[[float], float],
    upto: int = 3,
    scale: float = 1.0,
    rel_step: float = 1e-3,
) -> tuple[float, ...]:
    """Estimate raw moments by finite-difference differentiation of an LST.

    ``E[X^k] = (-1)^k d^k/ds^k L(s) |_{s=0}``.  We evaluate the transform on
    a symmetric stencil around 0 with spacing ``h = rel_step * scale`` —
    transforms of interest here are analytic at 0 (all moments finite), so
    evaluating at small negative ``s`` is legitimate.

    Parameters
    ----------
    laplace:
        Callable returning the transform value at a real point.
    upto:
        Highest moment order (supported: 1..4).
    scale:
        Characteristic scale (e.g. the mean); the step is relative to it.
    """
    if upto < 1 or upto > 4:
        raise ValueError(f"upto must be in 1..4, got {upto}")
    h = rel_step * scale
    # 9-point stencil values.
    offsets = np.arange(-4, 5)
    values = np.array([float(laplace(k * h)) for k in offsets])

    # Central finite-difference coefficient tables (8th/6th order accurate).
    coeffs = {
        1: np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0, 4 / 5, -1 / 5, 4 / 105, -1 / 280]),
        2: np.array(
            [-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560]
        ),
        3: np.array(
            [-7 / 240, 3 / 10, -169 / 120, 61 / 30, 0, -61 / 30, 169 / 120, -3 / 10, 7 / 240]
        ),
        4: np.array(
            [7 / 240, -2 / 5, 169 / 60, -122 / 15, 91 / 8, -122 / 15, 169 / 60, -2 / 5, 7 / 240]
        ),
    }
    out = []
    for k in range(1, upto + 1):
        deriv = float(coeffs[k] @ values) / h**k
        out.append((-1.0) ** k * deriv)
    return tuple(out)
