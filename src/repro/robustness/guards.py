"""Reusable numerical guards for matrices and scalars entering the solvers.

Silent NaN/inf propagation is the classic failure mode of matrix-analytic
code near the stability boundary: one infeasible busy-period moment turns
into a NaN rate block, the QBD "solves", and the figure shows garbage.
These guards reject bad values at the door with :class:`ValidationError`
(carrying the offending entry) instead of letting them reach LAPACK.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .errors import IllConditionedError, NearBoundaryWarning, ValidationError

__all__ = [
    "ensure_finite_scalar",
    "ensure_nonnegative_scalar",
    "ensure_finite_array",
    "ensure_rate_block",
    "ensure_no_material_negatives",
    "spectral_radius",
    "conditioning_outcome",
]

#: cond(I - R) above this warns NearBoundaryWarning (accuracy degrading).
CONDITION_WARN = 1e8
#: cond(I - R) above this raises IllConditionedError (result untrustworthy).
CONDITION_ERROR = 1e13


def ensure_finite_scalar(value: Any, name: str) -> float:
    """Return ``value`` as a float, rejecting NaN/inf."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not np.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {out}", value=out)
    return out


def ensure_nonnegative_scalar(value: Any, name: str) -> float:
    """Return ``value`` as a finite nonnegative float."""
    out = ensure_finite_scalar(value, name)
    if out < 0.0:
        raise ValidationError(f"{name} must be nonnegative, got {out}", value=out)
    return out


def ensure_finite_array(arr: Any, name: str) -> np.ndarray:
    """Return ``arr`` as a float ndarray, rejecting any NaN/inf entry."""
    out = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))
        first = tuple(int(i) for i in bad[0])
        raise ValidationError(
            f"{name} contains {bad.shape[0]} non-finite entries "
            f"(first at index {first})",
            n_bad=int(bad.shape[0]),
        )
    return out


def ensure_rate_block(m: Any, name: str) -> np.ndarray:
    """Validate a nonnegative 2D rate block (finite, 2D, elementwise >= 0)."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim == 2 and arr.size:
        # Fast accept: two scalar reductions instead of the full boolean
        # temporaries below.  A NaN poisons min() (NaN >= 0 is False) and
        # an inf fails isfinite(max()), so anything invalid falls through
        # to the slow path, which re-checks in the original order and
        # raises with the original diagnostics.
        if float(arr.min()) >= 0.0 and np.isfinite(float(arr.max())):
            return arr
    arr = ensure_finite_array(arr, name)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2D matrix, got ndim={arr.ndim}")
    if np.any(arr < 0.0):
        worst = float(arr.min())
        raise ValidationError(
            f"{name} must be elementwise nonnegative (rate block)", value=worst
        )
    return arr


def ensure_no_material_negatives(
    vec: np.ndarray, name: str, tol: float = 1e-9, **context: Any
) -> np.ndarray:
    """Reject vectors whose negative entries exceed ``tol`` after scaling.

    Probability vectors from least-squares solves legitimately carry
    ``-1e-16``-size noise; entries below ``-tol`` (relative to the largest
    magnitude) mean the solve failed and clipping would mask it.  Returns
    the vector clipped at zero when it passes.
    """
    scale = max(1.0, float(np.abs(vec).max())) if vec.size else 1.0
    most_negative = float(vec.min()) if vec.size else 0.0
    if most_negative < -tol * scale:
        raise ValidationError(
            f"{name} has materially negative entries",
            most_negative=most_negative,
            tolerance=tol * scale,
            **context,
        )
    return np.clip(vec, 0.0, None)


def spectral_radius(matrix: np.ndarray) -> float:
    """``max |eig|`` of a square matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def conditioning_outcome(
    cond: float, name: str, spectral_radius_hint: Optional[float] = None
) -> "tuple[Optional[IllConditionedError], Optional[NearBoundaryWarning]]":
    """``(error, warning)`` that a condition number ``cond`` of ``name``
    calls for, each None when not called for.

    Used on ``I - R`` before relying on its inverse: as ``sp(R) -> 1``
    near the stability boundary, ``cond(I - R) ~ 1/(1 - sp(R))`` and every
    moment derived from the inverse loses digits.  Above
    :data:`CONDITION_ERROR` (or non-finite) the error is an
    :class:`IllConditionedError`; above :data:`CONDITION_WARN` the warning
    is a :class:`NearBoundaryWarning`.
    """
    if not np.isfinite(cond) or cond > CONDITION_ERROR:
        return IllConditionedError(
            f"{name} is too ill-conditioned to invert reliably",
            condition_number=cond,
            spectral_radius=spectral_radius_hint,
        ), None
    if cond > CONDITION_WARN:
        return None, NearBoundaryWarning(
            f"{name} is ill-conditioned (cond ~ {cond:.3g}); results near "
            "the stability boundary carry reduced accuracy"
        )
    return None, None
