"""Numerical trust: condition-aware forward error bounds for QBD results.

The paper's hardest regimes — ``rho_s, rho_l -> 1``, where cycle stealing
matters most — are exactly where the boundary linear systems and the
``I - R`` resolvents go ill-conditioned, and a float64 fixpoint can
degrade *silently*: the fallback ladder accepts a residual, the mass
check passes, and the number is still only good to a few digits.  This
module attaches a machine-checkable verdict to every exact solve:

``trusted``
    The composed first-order forward error bound is below
    :data:`TRUSTED_MAX`; the value carries full float64 accuracy for any
    downstream comparison.
``suspect``
    The bound is material but not fatal.  The solver reacts by running
    the precision-escalation rung (:func:`newton_polish_r` +
    :func:`refined_solve`) and keeps the escalated result only when the
    bound actually shrinks.
``untrusted``
    The bound exceeds :data:`UNTRUSTED_MIN` — the leading digits are in
    doubt.  The oracle widens its agreement tolerance accordingly, the
    query service refuses to serve the value at the exact rung, and the
    store's ``fsck --trust`` flags persisted entries.

The bound composes per point as

    ``bound = cond(B) * (res_B / scale_B + u)
            + K_TAIL * cond(I - R) * (res_R / scale_R + u)``

where ``cond`` is the exact 1-norm condition number (:func:`condest_1`,
from the inverses the solve holds), ``B`` the boundary system, ``res_*``
the accepted residuals, ``u`` float64 unit roundoff, and ``K_TAIL``
accounts for the response-time formulas applying ``(I - R)^{-1}`` up to
the third power.  This is classic backward-error-times-condition-number
reasoning (Higham 2002, ch. 7): cheap, first-order, and deliberately
*pessimistic* — a verdict may cry wolf, it must never stay silent.

Everything here is elementwise numpy over an optional leading stack
axis: the scalar solver calls with single matrices, the sweep prefetch
(:mod:`repro.perf.batched`) with ``(N, n, n)`` stacks, and both run the
*identical* arithmetic (the same per-slice LAPACK dispatch), so scalar
and batched verdicts are bit-identical by construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "K_TAIL",
    "TRUSTED_MAX",
    "UNTRUSTED_MIN",
    "TRUST_LEVELS",
    "compose_bound",
    "condest_1",
    "newton_polish_r",
    "refined_solve",
    "trust_verdict",
    "trust_verdicts",
    "scale_tolerance",
]

#: Verdict levels, ordered from best to worst.
TRUST_LEVELS = ("trusted", "suspect", "untrusted")

#: Bound at or below which a point is ``trusted``.  Interior sweep points
#: compose to ~1e-12; near-boundary (rho within ~1% of the stability
#: edge) points reach 1e-8..1e-5 through cond(I - R) ~ 1/(1 - sp(R)).
TRUSTED_MAX = 1e-7

#: Bound above which a point is ``untrusted`` (leading digits in doubt).
UNTRUSTED_MIN = 1e-2

#: How many powers of ``(I - R)^{-1}`` the moment formulas stack
#: (``second_moment_level`` uses the cube), amplifying the tail error.
K_TAIL = 3.0

#: Unit roundoff of the working precision.
_UNIT_ROUNDOFF = float(np.finfo(float).eps)


def _norm_1(a: np.ndarray) -> np.ndarray:
    """Per-slice matrix 1-norm (max column abs sum) of an ``(N, n, n)`` stack."""
    return np.abs(a).sum(axis=1).max(axis=-1)


def _inv_stack(a: np.ndarray) -> np.ndarray:
    """Per-slice inverse with singular slices -> all-``inf`` inverses.

    Batched ``np.linalg.inv`` raises if *any* slice is singular, which
    would poison the healthy slices of a stack; fall back to a per-slice
    loop so a singular matrix gets an infinite condition number for that
    slice only.
    """
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.full_like(a, np.inf)
        for i in range(a.shape[0]):
            try:
                out[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                pass
        return out


def condest_1(
    a: np.ndarray, a_inv: "Optional[np.ndarray]" = None
) -> "float | np.ndarray":
    """Exact 1-norm condition number ``||A||_1 * ||A^{-1}||_1``.

    Accepts one ``(n, n)`` matrix or an ``(N, n, n)`` stack; returns a
    float or an ``(N,)`` array.  ``a_inv`` is the inverse when the caller
    already holds it (the QBD solve's ``(I - R)^{-1}``), so no inversion
    runs; otherwise each slice is inverted once.  Non-finite inputs and
    singular slices give ``inf``.
    """
    a = np.asarray(a, dtype=float)
    squeeze = a.ndim == 2
    if squeeze:
        a = a[None]
    finite = np.isfinite(a).all(axis=(1, 2))
    if a_inv is None:
        a_inv = _inv_stack(np.where(finite[:, None, None], a, np.eye(a.shape[-1])))
    else:
        a_inv = np.asarray(a_inv, dtype=float).reshape(a.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        cond = _norm_1(a) * _norm_1(a_inv)
    cond = np.where(np.isnan(cond), np.inf, cond)
    return float(cond[0]) if squeeze else cond


def compose_bound(
    cond_boundary: "float | np.ndarray",
    boundary_residual: "float | np.ndarray",
    boundary_scale: "float | np.ndarray",
    cond_i_minus_r: "float | np.ndarray",
    r_residual: "float | np.ndarray",
    r_scale: "float | np.ndarray",
) -> "float | np.ndarray":
    """First-order forward error bound through the QBD pipeline.

    Elementwise over stacks; NaN inputs (an unsolved slice) compose to
    ``inf`` so they can never masquerade as trusted.
    """
    cond_b = np.asarray(cond_boundary, dtype=float)
    cond_ir = np.asarray(cond_i_minus_r, dtype=float)
    res_b = np.asarray(boundary_residual, dtype=float) / np.asarray(
        boundary_scale, dtype=float
    )
    res_r = np.asarray(r_residual, dtype=float) / np.asarray(r_scale, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        bound = cond_b * (res_b + _UNIT_ROUNDOFF) + K_TAIL * cond_ir * (
            res_r + _UNIT_ROUNDOFF
        )
    bound = np.where(np.isnan(bound), np.inf, bound)
    return float(bound) if bound.ndim == 0 else bound


def trust_verdict(bound: Optional[float]) -> str:
    """Map one error bound to ``trusted`` / ``suspect`` / ``untrusted``.

    ``None`` and non-finite bounds are ``untrusted``: no bound is not the
    same as a small bound.
    """
    if bound is None or not np.isfinite(bound):
        return "untrusted"
    if bound <= TRUSTED_MAX:
        return "trusted"
    if bound <= UNTRUSTED_MIN:
        return "suspect"
    return "untrusted"


def trust_verdicts(bounds: np.ndarray) -> "list[str]":
    """Vector form of :func:`trust_verdict` (bit-identical thresholds)."""
    return [trust_verdict(float(b)) for b in np.asarray(bounds, dtype=float)]


def scale_tolerance(base_tolerance: float, bound: Optional[float]) -> float:
    """Agreement tolerance sized by the numerical trust of the exact value.

    The cross-method oracle compares an exact QBD answer against
    independent references; demanding agreement tighter than the exact
    value's own error bound turns numerical mush into false alarms,
    while a fixed tolerance wastes sensitivity on well-conditioned
    points.  Returns ``base + bound`` (never *tightens* below the
    configured base); an unknown or non-finite bound falls back to the
    base unchanged — the verdict, not the tolerance, carries that alarm.
    """
    if bound is None or not np.isfinite(bound) or bound <= 0.0:
        return float(base_tolerance)
    return float(base_tolerance) + float(bound)


def newton_polish_r(
    r: np.ndarray, a0: np.ndarray, a1: np.ndarray, a2: np.ndarray
) -> "tuple[np.ndarray, float, bool]":
    """One Newton step on ``F(R) = A0 + R A1 + R^2 A2``.

    Solves the linearization ``Delta (A1 + R A2) + R Delta A2 = -F(R)``
    exactly via its Kronecker form (m^2 x m^2 — tiny at QBD block sizes)
    and keeps the step only if the quadratic residual strictly drops.

    Returns ``(r, residual, improved)`` — the original iterate and its
    residual when the step is rejected or the linearization is singular,
    so callers never regress.
    """
    m = r.shape[0]
    f = a0 + r @ a1 + r @ r @ a2
    res_before = float(np.abs(f).max())
    lhs = np.kron((a1 + r @ a2).T, np.eye(m)) + np.kron(a2.T, r)
    try:
        vec_delta = np.linalg.solve(lhs, -f.reshape(-1, order="F"))
    except np.linalg.LinAlgError:
        return r, res_before, False
    delta = vec_delta.reshape((m, m), order="F")
    polished = r + delta
    res_after = float(np.abs(a0 + polished @ a1 + polished @ polished @ a2).max())
    if np.isfinite(res_after) and res_after < res_before:
        return polished, res_after, True
    return r, res_before, False


def refined_solve(
    a: np.ndarray, b: np.ndarray, iterations: int = 2
) -> "tuple[np.ndarray, bool]":
    """Compensated linear solve: iterative refinement with an extended-
    precision residual.

    Each pass computes ``r = b - A x`` in ``np.longdouble`` (the platform's
    extended precision where available; plain float64 where not — the
    refinement still helps through the re-solve) and corrects ``x`` with a
    float64 solve.  Returns ``(x, ok)``; ``ok`` is False when the system
    is singular and the caller should keep its original solution.
    """
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return b.copy(), False
    a_ld = a.astype(np.longdouble)
    b_ld = b.astype(np.longdouble)
    for _ in range(iterations):
        residual = b_ld - a_ld @ x.astype(np.longdouble)
        try:
            correction = np.linalg.solve(a, residual.astype(float))
        except np.linalg.LinAlgError:
            break
        x = x + correction
    return x, True
