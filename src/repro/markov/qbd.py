"""Quasi-birth-death (QBD) processes with matrix-analytic solution.

This is the paper's Section 2.4 machinery: the CS-CQ chain is "infinite in
only 1D", with a level (number of short jobs) and a small phase set; "the
repeating portion is represented as powers of a matrix R, which can be
added, as one adds a geometric series".

The solver supports an irregular boundary (levels whose phase sets differ
from the repeating portion — e.g. the paper's chain has no region-5 states
at levels 0 and 1) followed by a level-independent repeating portion
``(A0, A1, A2)``.

Hardening (see :mod:`repro.robustness`): ``R`` is computed through a
declarative fallback ladder — logarithmic reduction (Latouche & Ramaswami)
on the uniformized chain, then successive substitution, then a
re-uniformized logarithmic reduction with tightened tolerance — with every
rung's attempt recorded on the :class:`SolverDiagnostics` attached to the
returned :class:`QbdSolution`.  All failure paths raise typed
:class:`~repro.robustness.ReproError` subclasses carrying residuals,
iteration counts, condition numbers and spectral radii.

Rung 1 (the logarithmic-reduction iteration, the R recovery), the
boundary solve, the trust assessment, the acceptance gates and the
assembly of a :class:`QbdSolution` are written once, over ``(N, m, m)``
stacks: :meth:`QbdProcess.solve` runs them on a stack of one, and the
sweep prefetch (:mod:`repro.perf.batched`, through
:func:`trusted_rung1_solutions`) on a stack of a whole sweep row.  Only
the fallback rungs (successive substitution, the tightened rung, the
Newton/refined escalation) are single-chain code.
"""

from __future__ import annotations

import copy
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..perf import active_cache
from ..telemetry import (
    IterationTrace,
    counter_inc,
    observe,
    set_span_attribute,
    span,
    tracing_enabled,
)
from ..robustness import (
    ConvergenceError,
    NumericalError,
    ReproError,
    Rung,
    RungAttempt,
    SolverDiagnostics,
    UnstableSystemError,
    ValidationError,
    compose_bound,
    condest_1,
    conditioning_outcome,
    ensure_no_material_negatives,
    ensure_rate_block,
    newton_polish_r,
    refined_solve,
    run_fallback_ladder,
    spectral_radius,
    trust_verdicts,
)

__all__ = [
    "QbdProcess",
    "QbdSolution",
    "cached_solution",
    "solve_r_matrix",
    "solve_r_matrix_with_diagnostics",
    "solve_g_matrix",
    "solve_g_matrix_batched",
    "solve_r_matrix_batched",
]


def _as_matrix(m, name: str) -> np.ndarray:
    return ensure_rate_block(m, name)


def _quadratic_residual(
    r: np.ndarray, a0: np.ndarray, a1: np.ndarray, a2: np.ndarray
) -> "float | np.ndarray":
    """Max-abs residual of R's defining quadratic ``A0 + R A1 + R^2 A2 = 0``
    (per slice over ``(N, m, m)`` stacks)."""
    return np.abs(a0 + r @ a1 + r @ r @ a2).max(axis=(-2, -1))


def _block_scale(
    a0: np.ndarray, a1: np.ndarray, a2: np.ndarray
) -> "float | np.ndarray":
    """``max(|A0|, |A1|, |A2|, 1)`` (per slice over ``(N, m, m)`` stacks)."""
    scale = 1.0
    for block in (a0, a1, a2):
        scale = np.maximum(scale, np.abs(block).max(axis=(-2, -1)))
    return scale


def _with_diagonal(local: np.ndarray, *leaving: np.ndarray) -> np.ndarray:
    """``(N, m, m)`` local blocks with their proper negative diagonals.

    Each diagonal entry balances its row's off-diagonal rates plus the
    row's total rate out through the ``leaving`` blocks (the level's up
    and down blocks), so the full generator has zero row sums.  The
    diagonal ``local`` arrives with is ignored.
    """
    out_rates = leaving[0].sum(axis=2)
    for out in leaving[1:]:
        out_rates = out_rates + out.sum(axis=2)
    block = local.copy()
    m = block.shape[-1]
    diagonal = block.reshape(-1, m * m)[:, :: m + 1]  # a view of each diagonal
    diagonal[...] = 0.0
    diagonal[...] = -(block.sum(axis=2) + out_rates)
    return block


def _assess_trust(
    square: np.ndarray,
    boundary_residual: np.ndarray,
    boundary_scale: np.ndarray,
    cond_i_minus_r: np.ndarray,
    r_residual: "float | np.ndarray",
    r_scale: "float | np.ndarray",
) -> tuple[np.ndarray, np.ndarray]:
    """``(condition_estimate, error_bound)`` over a stack of solves.

    ``square`` is an ``(N, n, n)`` stack of boundary systems (each
    inverted once for its cond₁), ``cond_i_minus_r`` the ``(N,)`` cond₁
    of ``I - R`` the tail gates read, the residuals and scales ``(N,)``
    arrays or scalars; a single solve is a stack of one, so every point
    carries the same verdict whichever path solved it.
    """
    cond_boundary = condest_1(square)
    bound = compose_bound(
        cond_boundary,
        boundary_residual,
        boundary_scale,
        cond_i_minus_r,
        r_residual,
        r_scale,
    )
    return np.maximum(cond_boundary, cond_i_minus_r), bound


#: Iteration-budget multiplier for the successive-substitution rung.
#: ``max_iter`` budgets the quadratically convergent logarithmic-reduction
#: rungs; substitution converges only linearly (error shrinks by roughly
#: ``sp(R)`` per step), so its rung scales the caller's budget by this
#: factor instead of using a private hard-coded cap.  With the default
#: ``max_iter=200`` this reproduces the historical 500000-iteration limit.
_SUBSTITUTION_ITER_FACTOR = 2500

#: Default tolerance and iteration budget of the R-matrix solve, shared by
#: the ladder and the stacked functions.
R_TOL = 1e-13
R_MAX_ITER = 200

#: Quadratic residual (relative to the block scale) at which the
#: logarithmic-reduction rung accepts its R; the sweep prefetch seeds only
#: slices that pass the same test.
_LOG_REDUCTION_MAX_RESIDUAL = 1e-8


def solve_r_matrix(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = R_TOL,
    max_iter: int = R_MAX_ITER,
) -> np.ndarray:
    """Minimal nonnegative solution of ``A0 + R A1 + R^2 A2 = 0``.

    ``A0/A1/A2`` are the up/local/down generator blocks of the repeating
    portion (``A1`` carries the negative diagonal).  Runs the full fallback
    ladder; see :func:`solve_r_matrix_with_diagnostics` for the attempt log.

    ``max_iter`` is the iteration budget of the quadratically convergent
    logarithmic-reduction rungs; the linearly convergent successive-
    substitution rung receives ``max_iter * 2500``
    (:data:`_SUBSTITUTION_ITER_FACTOR`) and the tightened rung
    ``4 * max_iter``, so one caller-supplied budget governs the whole
    ladder.
    """
    r, _ = solve_r_matrix_with_diagnostics(a0, a1, a2, tol=tol, max_iter=max_iter)
    return r


def solve_r_matrix_with_diagnostics(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = R_TOL,
    max_iter: int = R_MAX_ITER,
) -> tuple[np.ndarray, SolverDiagnostics]:
    """R-matrix solve through the fallback ladder, with the attempt log.

    Ladder rungs, in order:

    1. ``logarithmic-reduction`` — quadratically convergent, the fast path.
    2. ``successive-substitution`` — linearly convergent but very robust:
       ``R_{k+1} = -(A0 + R_k^2 A2) A1^{-1}``, budgeted at
       ``max_iter * 2500`` iterations (see :data:`_SUBSTITUTION_ITER_FACTOR`).
    3. ``logarithmic-reduction-tightened`` — re-uniformized with a larger
       uniformization constant and a tightened tolerance, budgeted at
       ``4 * max_iter`` iterations, for chains where the default
       uniformization is numerically unlucky.

    Both logarithmic-reduction rungs run the kernels of
    :func:`solve_r_matrix_batched` on a stack of one.

    Raises
    ------
    ConvergenceError
        If no rung reaches its acceptance residual; the error context
        carries the best residual and the number of rungs tried.
    """
    a0 = _as_matrix(a0, "a0")
    a1 = np.asarray(a1, dtype=float)  # carries the negative diagonal
    a2 = _as_matrix(a2, "a2")

    with span("qbd.r_matrix", size=a1.shape[0], tol=tol, max_iter=max_iter) as sp:
        r, diagnostics = _run_r_ladder(a0, a1, a2, tol, max_iter)
        sp.set("method", diagnostics.method)
        sp.set("residual", diagnostics.residual)
        sp.set("iterations", diagnostics.iterations)
        sp.set("spectral_radius", diagnostics.spectral_radius)
        sp.set("rung_iterations", diagnostics.rung_iterations)
    _count_r_solves(diagnostics.method)
    if diagnostics.wall_time is not None:
        observe("qbd.r_matrix.seconds", diagnostics.wall_time)
    return r, diagnostics


def _count_r_solves(method: str, count: int = 1) -> None:
    """Count ``count`` R-matrix solves settled by the rung ``method``."""
    counter_inc("qbd.r_matrix.solves", count)
    counter_inc(f"qbd.r_matrix.method.{method}", count)


def _run_r_ladder(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, SolverDiagnostics]:
    """The ladder itself (the untraced core of the R-matrix solve)."""
    scale = float(_block_scale(a0, a1, a2))
    start = time.perf_counter()
    stack = (a0[None], a1[None], a2[None])

    def via_log_reduction(g_tol: float, g_max_iter: int, theta_factor: float):
        def run():
            reduction = _log_reduction(*stack, g_tol, g_max_iter, theta_factor)
            iterations = _single_outcome(reduction, g_tol, g_max_iter)
            r, residual = _recover_r(*stack, reduction.g)
            return r[0], float(residual[0]), iterations

        return run

    def via_substitution():
        r, iterations = _solve_r_substitution(
            a0, a1, a2, tol=tol, max_iter=max_iter * _SUBSTITUTION_ITER_FACTOR
        )
        return r, float(_quadratic_residual(r, a0, a1, a2)), iterations

    rungs = [
        Rung(
            "logarithmic-reduction",
            via_log_reduction(tol, max_iter, theta_factor=1.0),
            max_residual=_LOG_REDUCTION_MAX_RESIDUAL * scale,
        ),
        Rung("successive-substitution", via_substitution, max_residual=1e-7 * scale),
        Rung(
            "logarithmic-reduction-tightened",
            via_log_reduction(_tightened_tol(tol), 4 * max_iter, theta_factor=4.0),
            max_residual=1e-7 * scale,
        ),
    ]
    r, attempts = run_fallback_ladder(rungs, "R-matrix solve")
    diagnostics = SolverDiagnostics(
        method=attempts[-1].name,
        rungs=attempts,
        residual=attempts[-1].residual,
        spectral_radius=spectral_radius(r),
        iterations=attempts[-1].iterations,
        wall_time=time.perf_counter() - start,
    )
    return r, diagnostics


def _solve_r_substitution(
    a0: np.ndarray, a1: np.ndarray, a2: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, int]:
    """Successive substitution ``R_{k+1} = -(A0 + R_k^2 A2) A1^{-1}``.

    Raises :class:`ConvergenceError` (with the final step size and the
    quadratic residual) instead of silently returning an unconverged
    iterate after ``max_iter``.
    """
    a1_inv = np.linalg.inv(a1)
    r = np.zeros_like(a0)
    delta = float("inf")
    trace = IterationTrace() if tracing_enabled() else None
    for iteration in range(1, max_iter + 1):
        nxt = -(a0 + r @ r @ a2) @ a1_inv
        delta = float(np.abs(nxt - r).max())
        r = nxt
        if trace is not None:
            trace.record(delta)
        if delta < tol:
            if trace is not None:
                set_span_attribute("convergence", trace.as_dict())
            return r, iteration
    if trace is not None:
        set_span_attribute("convergence", trace.as_dict())
    raise ConvergenceError(
        f"successive substitution did not converge in {max_iter} iterations",
        residual=float(_quadratic_residual(r, a0, a1, a2)),
        step_size=delta,
        iterations=max_iter,
    )


#: Consecutive iterations without a new step-size minimum before the
#: logarithmic-reduction iteration declares stagnation.  Quadratic (and
#: even slow linear) convergence sets a new minimum every iteration, so a
#: window this long only trips on a genuine plateau.
_STAGNATION_WINDOW = 12


def _tightened_tol(tol: float) -> float:
    """Representable tolerance for the tightened fallback rung.

    The historical rung tightened to ``min(tol, 1e-15)`` — below the
    smallest step-size change float64 arithmetic can resolve around 1.0,
    so near-boundary iterates that plateaued just above it burned the
    whole ``4 * max_iter`` budget before falling through.  Clamp to a few
    machine epsilons so the target is always achievable by an iterate
    that is actually converging.
    """
    return max(min(tol, 1e-15), 8.0 * float(np.finfo(float).eps))


def solve_g_matrix(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = R_TOL,
    max_iter: int = R_MAX_ITER,
) -> np.ndarray:
    """Compute G (first-passage to the level below) by logarithmic reduction.

    Runs the stacked iteration on a stack of one; raises
    :class:`ConvergenceError` when the iteration stagnates or exhausts
    ``max_iter``.
    """
    stack = [np.asarray(block, dtype=float)[None] for block in (a0, a1, a2)]
    reduction = _log_reduction(*stack, tol, max_iter)
    _single_outcome(reduction, tol, max_iter)
    return reduction.g[0]


class _LogReduction(NamedTuple):
    """Per-slice outcome of :func:`_log_reduction` over an ``(N, m, m)`` stack."""

    #: ``(N, m, m)``; zeros where the slice did not converge.
    g: np.ndarray
    #: ``(N,)`` iterations run until the slice converged or stagnated
    #: (``max_iter`` when it exhausted the budget).
    iterations: np.ndarray
    #: ``(N,)`` bool: the step size fell below ``tol``.
    converged: np.ndarray
    #: ``(N,)`` bool: the step size plateaued above ``tol``.
    stagnated: np.ndarray
    #: ``(max_iter, N)`` step size after each iteration; NaN where a slice
    #: had stopped iterating.
    steps: np.ndarray


def _log_reduction(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iter: int,
    theta_factor: float = 1.0,
) -> _LogReduction:
    """Logarithmic reduction for G on the uniformized chain, over stacks.

    The one implementation of the iteration: ``a0/a1/a2`` are ``(N, m, m)``
    stacks (``a1`` carrying the negative diagonal), and a single chain runs
    as a stack of one.  Slices never mix: batched ``matmul``/``solve``
    dispatch the same per-slice LAPACK routine whatever the stack holds,
    so a slice's iterates, step sizes and iteration count do not depend on
    its neighbours.  A slice leaves the stack when it converges or
    stagnates.

    ``theta_factor > 1`` re-uniformizes with a larger constant than the
    minimal one — mathematically equivalent, numerically a different
    iteration, which is what the tightened fallback rung exploits.

    Raises :class:`NumericalError` for a block with a zero diagonal; a
    singular stacked solve raises ``LinAlgError`` for the whole stack.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    n_pts, m, _ = a1.shape
    theta = np.abs(np.diagonal(a1, axis1=1, axis2=2)).max(axis=1)
    if (theta <= 0.0).any():
        raise NumericalError("A1 has a zero diagonal; not a valid generator block")
    th = (theta * ((1.0 + 1e-9) * theta_factor))[:, None, None]
    ident = np.eye(m)[None]
    # Uniformized (discrete) blocks; one LAPACK solve with a stacked
    # right-hand side yields both kernels.
    d1 = ident + a1 / th
    kernels = np.linalg.solve(ident - d1, np.concatenate([a0 / th, a2 / th], axis=2))
    h = kernels[:, :, :m]  # "up" kernel
    low = kernels[:, :, m:]  # "down" kernel
    g = low.copy()
    t = h.copy()
    g_out = np.zeros_like(a1)
    iterations = np.full(n_pts, max_iter, dtype=np.int64)
    converged = np.zeros(n_pts, dtype=bool)
    stagnated = np.zeros(n_pts, dtype=bool)
    steps = np.full((max_iter, n_pts), np.nan)
    # The rows still iterating: their slice, their step sizes, and a
    # hair below the best step before their stagnation window.
    idx = np.arange(n_pts)
    history = steps.copy()
    floor = np.full(n_pts, np.inf)
    for iteration in range(1, max_iter + 1):
        sol = np.linalg.solve(
            ident - (h @ low + low @ h), np.concatenate([h @ h, low @ low], axis=2)
        )
        h = sol[:, :, :m]
        low = sol[:, :, m:]
        g = g + t @ low
        t = t @ h
        step = np.abs(t).max(axis=(1, 2))
        history[iteration - 1] = step
        stop = done = step < tol
        if iteration >= _STAGNATION_WINDOW:
            # Stagnation: a converging slice sets a new step-size minimum
            # (by a relative 1e-6) every iteration; a plateau means the
            # remaining mass will never drain below ``tol``, so fail fast
            # to the next rung instead of burning the rest of the budget.
            # A slice stagnates when no step of the last window undercuts
            # the best step before it.
            start = iteration - _STAGNATION_WINDOW
            if start:
                row = history[start - 1]
                floor = np.where(row < floor, row * (1.0 - 1e-6), floor)
            stop = done | ~(history[start:iteration] < floor).any(axis=0)
        if not np.count_nonzero(stop):
            continue
        # Snapshot converged slices at the convergence event, then drop
        # every resolved slice from the stack.
        g_out[idx[done]] = g[done]
        converged[idx[done]] = True
        stagnated[idx[stop & ~done]] = True
        iterations[idx[stop]] = iteration
        keep = ~stop
        if not np.count_nonzero(keep):
            break
        steps[:, idx[stop]] = history[:, stop]
        idx, h, low, g, t = idx[keep], h[keep], low[keep], g[keep], t[keep]
        history, floor = history[:, keep], floor[keep]
    steps[:, idx] = history
    return _LogReduction(g_out, iterations, converged, stagnated, steps)


def _single_outcome(reduction: _LogReduction, tol: float, max_iter: int) -> int:
    """Iteration count of a one-slice reduction, or its typed error.

    Under tracing, the slice's per-iteration step sizes land on the current
    span as its ``convergence`` attribute.
    """
    iterations = int(reduction.iterations[0])
    if tracing_enabled():
        trace = IterationTrace()
        for step in reduction.steps[:iterations, 0]:
            trace.record(step)
        set_span_attribute("convergence", trace.as_dict())
    if reduction.converged[0]:
        return iterations
    step = float(reduction.steps[iterations - 1, 0])
    if reduction.stagnated[0]:
        raise ConvergenceError(
            f"logarithmic reduction stagnated after {iterations} "
            f"iterations (step plateaued at {step:.3g} >= tol {tol:.3g})",
            residual=step,
            iterations=iterations,
        )
    raise ConvergenceError(
        f"logarithmic reduction did not converge in {max_iter} iterations",
        residual=step,
        iterations=iterations,
    )


def solve_g_matrix_batched(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = R_TOL,
    max_iter: int = R_MAX_ITER,
    theta_factor: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Logarithmic reduction for G over a stack of QBD block triples.

    ``a0/a1/a2`` are ``(N, m, m)`` stacks (``a1`` carrying the negative
    diagonal); see :func:`_log_reduction`.

    Returns
    -------
    (g, iterations, converged):
        ``g`` is ``(N, m, m)`` (zeros for non-converged slices),
        ``iterations`` the per-slice iteration counts, and ``converged``
        a boolean mask.  Slices that stagnate or exhaust ``max_iter``
        simply come back non-converged instead of raising.
    """
    reduction = _log_reduction(a0, a1, a2, tol, max_iter, theta_factor)
    return reduction.g, reduction.iterations, reduction.converged


def _recover_r(
    a0: np.ndarray, a1: np.ndarray, a2: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """R from G over ``(N, m, m)`` stacks, with its quadratic residual."""
    # R = A0 * (-(A1 + A0 G))^{-1}  (continuous-time identity).
    r = a0 @ np.linalg.inv(-(a1 + a0 @ g))
    return r, _quadratic_residual(r, a0, a1, a2)


def solve_r_matrix_batched(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float = R_TOL,
    max_iter: int = R_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched first-rung R-matrix solve over ``(N, m, m)`` block stacks.

    Runs the ``logarithmic-reduction`` rung of the fallback ladder (the
    rung that wins on essentially every sweep point) across the leading
    axis, with the rung's acceptance test (quadratic residual
    ``<= 1e-8 * block scale``).  Slices the rung does not accept come back
    with ``accepted=False``; the caller falls back to the full ladder for
    those points (substitution rung, tightened rung, typed errors).

    Returns
    -------
    (r, residual, iterations, accepted):
        ``r`` is ``(N, m, m)``; ``residual`` the per-slice quadratic
        residual (``inf`` where G did not converge); ``iterations`` the
        per-slice G-iteration counts; ``accepted`` the rung's mask.
    """
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    reduction = _log_reduction(a0, a1, a2, tol, max_iter)
    r = np.zeros_like(a1)
    residual = np.full(a1.shape[0], np.inf)
    idx = np.flatnonzero(reduction.converged)
    if idx.size:
        r[idx], residual[idx] = _recover_r(
            a0[idx], a1[idx], a2[idx], reduction.g[idx]
        )
    accepted = residual <= _LOG_REDUCTION_MAX_RESIDUAL * _block_scale(a0, a1, a2)
    return r, residual, reduction.iterations, accepted


def _solve_boundary(
    boundary_local: list[np.ndarray],
    boundary_up: list[np.ndarray],
    boundary_down: list[np.ndarray],
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    r: np.ndarray,
    refined: bool = False,
) -> tuple:
    """Assemble and solve the finite boundary system (levels ``0..b``).

    Every argument is a ``(k, ., .)`` stack of *rate* blocks (diagonals
    are derived here), with ``R`` for each slice; a single chain is a stack
    of one.  Returns ``(pi, residual, ok, offsets, dims, i_minus_r_inv,
    square, scale)`` over the leading axis; the square systems and scales
    ride along for the trust assessment of exactly the matrices solved.
    With ``refined=True`` the square solve runs through the compensated
    :func:`~repro.robustness.trust.refined_solve` (the precision-escalation
    rung).
    """
    k, m = a1.shape[0], a1.shape[1]
    b = len(boundary_local)
    dims = [block.shape[1] for block in boundary_local] + [m]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    total = int(offsets[-1])
    big = np.zeros((k, total, total))

    def put(i: int, j: int, block: np.ndarray) -> None:
        big[:, offsets[i] : offsets[i] + dims[i], offsets[j] : offsets[j] + dims[j]] += block

    for i in range(b):
        below = [boundary_down[i - 1]] if i else []
        put(i, i, _with_diagonal(boundary_local[i], boundary_up[i], *below))
        put(i, i + 1, boundary_up[i])
        put(i + 1, i, boundary_down[i])
    # Level b local: its diagonal accounts for A0 and its actual down block.
    below = [boundary_down[b - 1]] if b else []
    put(b, b, _with_diagonal(a1, a0, *below) + r @ a2)

    # pi @ big = 0 with normalization sum(boundary) + pi_b (I-R)^{-1} 1 = 1.
    i_minus_r_inv = np.linalg.inv(np.eye(m) - r)
    norm_row = np.ones((k, total))
    norm_row[:, offsets[b] :] = i_minus_r_inv.sum(axis=2)
    # The balance equations have rank total - 1 (one is redundant), so
    # replace one with the normalization row and solve the square system
    # — much cheaper than the SVD behind lstsq.  The residual is checked
    # against the *full* balance system, so an unlucky replacement (or a
    # singular square matrix) falls back to least squares per slice.
    square = np.swapaxes(big, 1, 2).copy()  # never a view of ``big``
    square[:, -1, :] = norm_row
    rhs = np.zeros((k, total, 1))
    rhs[:, -1, 0] = 1.0
    scale = np.maximum(1.0, np.abs(big).max(axis=(1, 2)))
    if refined:
        pi, solved = refined_solve(square, rhs)
    else:
        try:
            pi, solved = np.linalg.solve(square, rhs), True
        except np.linalg.LinAlgError:
            solved = False
    if solved:
        pi = pi[..., 0]
        residual = np.abs(pi[:, None, :] @ big).max(axis=(1, 2))
    else:
        pi = np.zeros((k, total))
        residual = np.full(k, np.inf)
    ok = residual <= 1e-7 * scale
    for i in np.flatnonzero(~ok):
        a = np.vstack([big[i].T, norm_row[i][None, :]])
        rhs_ls = np.zeros(total + 1)
        rhs_ls[-1] = 1.0
        pi[i], *_ = np.linalg.lstsq(a, rhs_ls, rcond=None)
        residual[i] = np.abs(pi[i] @ big[i]).max()
        ok[i] = residual[i] <= 1e-7 * scale[i]
    return pi, residual, ok, offsets, dims, i_minus_r_inv, square, scale


class ChainStack(NamedTuple):
    """Rate blocks of ``N`` chains of one shape, stacked on a leading axis.

    The boundary lists hold one ``(N, ., .)`` stack per boundary level;
    ``a1_full`` is ``A1`` with its generator diagonal.
    """

    boundary_local: list
    boundary_up: list
    boundary_down: list
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a1_full: np.ndarray

    @classmethod
    def of(cls, processes: "Sequence[QbdProcess]") -> "ChainStack":
        """Stack processes that share ``b``, ``m`` and boundary shapes
        (one process stacks as views of its blocks)."""

        def stacked(blocks: list) -> np.ndarray:
            return blocks[0][None] if len(blocks) == 1 else np.stack(blocks)

        levels = range(processes[0].b)
        boundary = [
            [stacked([getattr(p, name)[i] for p in processes]) for i in levels]
            for name in ("boundary_local", "boundary_up", "boundary_down")
        ]
        a0, a1, a2 = (stacked([getattr(p, n) for p in processes]) for n in ("a0", "a1", "a2"))
        return cls(*boundary, a0, a1, a2, _with_diagonal(a1, a0, a2))

    def take(self, idx: np.ndarray) -> "ChainStack":
        """The sub-stack of slices ``idx``."""
        return ChainStack(
            *([block[idx] for block in blocks] for blocks in self[:3]),
            *(block[idx] for block in self[3:]),
        )


class _Solved(NamedTuple):
    """A stack solved for given R, filled by :func:`_boundary_stage` and
    :func:`_gate_tail`.  ``failures[j]``: the typed error of the first gate
    slice ``j`` fails, or None; ``warnings[j]``: its NearBoundaryWarning
    (``cond(I - R)`` in the warn band), or None."""

    r: np.ndarray
    r_residual: Optional[np.ndarray]
    #: Per slice, the stationary vectors of levels ``0..b`` (clipped at 0
    #: where the boundary gates passed).
    levels: list
    #: ``(I - R)^{-1}`` per slice: the inverse the normalization row used.
    i_minus_r_inv: np.ndarray
    failures: list
    #: Exact cond₁(I - R) per slice, from ``i_minus_r_inv``: the one value
    #: the trust bound, the tail gates and the diagnostics all read.
    condition: np.ndarray
    balance: Optional[np.ndarray] = None
    condition_estimate: Optional[np.ndarray] = None
    error_bound: Optional[np.ndarray] = None
    verdicts: Optional[list] = None
    #: Set when this stage is the precision-escalation rung's result.
    error_bound_before_escalation: Optional[np.ndarray] = None
    spectral_radius: Optional[np.ndarray] = None
    warnings: Optional[list] = None


def _boundary_stage(
    stack: ChainStack,
    r: np.ndarray,
    r_residual: np.ndarray,
    r_scale: np.ndarray,
    refined: bool = False,
) -> _Solved:
    """Solve a stack's boundary systems for given R, gate boundary balance
    and material negatives, and assess the trust of the slices passing
    both (the others keep a NaN bound).  ``refined=True`` is the
    precision-escalation rung's compensated solve."""
    pi, balance, ok, offsets, dims, inv, square, scale = _solve_boundary(
        *stack[:6], r, refined
    )
    failures: list = [None] * len(pi)
    for j in range(len(pi)):
        if not ok[j]:
            failures[j] = ConvergenceError(
                "QBD boundary solve failed to balance",
                residual=float(balance[j]),
                tolerance=1e-7 * float(scale[j]),
            )
            continue
        # Reject materially negative probabilities before clipping can mask
        # them (least-squares noise is fine; structural negatives are not).
        try:
            pi[j] = ensure_no_material_negatives(
                pi[j], "QBD boundary solution", tol=1e-9, balance_residual=float(balance[j])
            )
        except ValidationError as exc:
            failures[j] = exc
    condition = condest_1(np.eye(r.shape[-1]) - r, inv)
    cond_est, bound = np.full((2, len(pi)), np.nan)
    good = np.flatnonzero([failure is None for failure in failures])
    if good.size:
        cond_est[good], bound[good] = _assess_trust(
            square[good], balance[good], scale[good],
            condition[good], r_residual[good], r_scale[good],
        )
    levels = [[row[offsets[i] : offsets[i] + dims[i]] for i in range(len(dims))] for row in pi]
    return _Solved(
        r, r_residual, levels, inv, failures, condition, balance, cond_est, bound,
        trust_verdicts(bound),
    )


def _gate_tail(
    solved: _Solved, spectral_radius: Optional[np.ndarray] = None, normalization: bool = True
) -> _Solved:
    """Derive ``sp(R)`` (unless given) and gate the slices that passed the
    boundary gates: ``sp(R) < 1``, the error and warn bands of the stage's
    cond₁(I - R), then (if ``normalization``) the total mass."""
    r = solved.r
    if spectral_radius is None:
        spectral_radius = np.abs(np.linalg.eigvals(r)).max(axis=1)
    failures = list(solved.failures)
    near_boundary: list = [None] * len(r)
    tails = zip(
        solved.levels, solved.i_minus_r_inv, spectral_radius.tolist(), solved.condition.tolist()
    )
    for j, (levels, inverse, sp, cond) in enumerate(tails):
        if failures[j] is not None:
            continue
        if sp >= 1.0:
            failures[j] = UnstableSystemError(
                "geometric tail is not summable: sp(R) >= 1 (the chain is "
                "not positive recurrent at these rates)",
                spectral_radius=sp,
            )
            continue
        failures[j], near_boundary[j] = conditioning_outcome(cond, "I - R", sp)
        if failures[j] is not None or not normalization:
            continue
        mass = _total_mass(levels[:-1], levels[-1], inverse)
        if not 0.999999 < mass < 1.000001:
            failures[j] = NumericalError(
                "QBD normalization failed", total_mass=mass, spectral_radius=sp, condition_number=cond
            )
    return solved._replace(
        failures=failures, warnings=near_boundary, spectral_radius=spectral_radius
    )


def _raise_failed_gate(solved: _Solved) -> None:
    """A stack of one's tail warning, then its failed gate as its error."""
    if solved.warnings and solved.warnings[0] is not None:
        warnings.warn(solved.warnings[0], stacklevel=2)
    if solved.failures[0] is not None:
        raise solved.failures[0]


def _assemble(solved: _Solved, j: int, rungs: tuple, wall_time: float) -> "QbdSolution":
    """Slice ``j`` of a gated stack as a solution with its diagnostics;
    ``rungs`` is the R solve's ladder record (its last rung won)."""
    levels = solved.levels[j]
    spectral = float(solved.spectral_radius[j])
    condition = float(solved.condition[j])
    before = solved.error_bound_before_escalation
    diagnostics = SolverDiagnostics(
        method=rungs[-1].name,
        rungs=rungs,
        residual=float(solved.r_residual[j]),
        spectral_radius=spectral,
        condition_i_minus_r=condition,
        boundary_residual=float(solved.balance[j]),
        iterations=rungs[-1].iterations,
        wall_time=wall_time,
        condition_estimate=float(solved.condition_estimate[j]),
        error_bound=float(solved.error_bound[j]),
        trust=solved.verdicts[j],
        escalated=before is not None,
        error_bound_before_escalation=None if before is None else float(before[j]),
    )
    return QbdSolution(
        levels[:-1], levels[-1], solved.r[j], len(levels) - 1,
        spectral, condition, solved.i_minus_r_inv[j], diagnostics,
    )


def trusted_rung1_solutions(
    stack: ChainStack,
    r: np.ndarray,
    residual: np.ndarray,
    iterations: np.ndarray,
    accepted: np.ndarray,
    start: float,
) -> "list[Optional[QbdSolution]]":
    """Solutions of the slices a per-point solve would settle on rung 1.

    Runs the per-point boundary stage and tail gates on the slices
    :func:`solve_r_matrix_batched` accepted for ``stack``.  A slice gets
    its solution only if it passes every gate with a ``trusted`` verdict
    and no warning, i.e. when :meth:`QbdProcess.solve` would neither
    escalate, warn nor fall back; the others are None.  Each counts as one
    QBD solve, with an equal share of the wall time since ``start``.
    """
    solutions: list = [None] * len(r)
    acc = np.flatnonzero(accepted)
    if not acc.size:
        return solutions
    sub = stack.take(acc)
    r_scale = _block_scale(sub.a0, sub.a1_full, sub.a2)
    solved = _gate_tail(_boundary_stage(sub, r[acc], residual[acc], r_scale))
    wall_time = (time.perf_counter() - start) / acc.size
    for j, i in enumerate(acc.tolist()):
        clean = solved.failures[j] is None and solved.warnings[j] is None
        if clean and solved.verdicts[j] == "trusted":
            attempt = RungAttempt("logarithmic-reduction", True, float(residual[i]), int(iterations[i]))
            solutions[i] = _assemble(solved, j, (attempt,), wall_time)
    solved_count = sum(solution is not None for solution in solutions)
    if solved_count:
        counter_inc("qbd.solves", solved_count)
        _count_r_solves("logarithmic-reduction", solved_count)
    return solutions


def _total_mass(boundary_pi: Sequence, pi_repeat: np.ndarray, i_minus_r_inv: np.ndarray) -> float:
    """Total probability mass of a matrix-geometric solution (should be 1)."""
    tail = float((pi_repeat @ i_minus_r_inv).sum())
    return sum(float(v.sum()) for v in boundary_pi) + tail


def restore_solution(
    boundary_pi: list,
    pi_repeat: np.ndarray,
    r_matrix: np.ndarray,
    first_repeating_level: int,
    diagnostics: Optional[SolverDiagnostics],
    spectral_radius: Optional[float] = None,
) -> "QbdSolution":
    """A stored solution: ``(I - R)^{-1}`` and cond₁(I - R) re-derived
    from its R, and the ``sp(R)`` and cond gates of a solve re-run on them
    (the store's contracts check normalization).  Bit-identical inputs
    give back the original attribute for attribute."""
    r = r_matrix[None]
    i_minus_r = np.eye(r.shape[-1]) - r
    inv = np.linalg.inv(i_minus_r)
    known = None if spectral_radius is None else np.array([spectral_radius])
    levels = [[*boundary_pi, pi_repeat]]
    solved = _Solved(r, None, levels, inv, [None], condest_1(i_minus_r, inv))
    solved = _gate_tail(solved, known, normalization=False)
    _raise_failed_gate(solved)
    return QbdSolution(
        boundary_pi, pi_repeat, r_matrix, first_repeating_level,
        float(solved.spectral_radius[0]), float(solved.condition[0]), inv[0], diagnostics,
    )


@dataclass
class QbdSolution:
    """Stationary solution of a :class:`QbdProcess`.

    Built by :func:`_assemble` (for :meth:`QbdProcess.solve` and
    :func:`trusted_rung1_solutions`) and :func:`restore_solution`, after
    the tail gates of :func:`_gate_tail`.

    Attributes
    ----------
    boundary_pi:
        List of stationary probability vectors for levels ``0..b-1``.
    pi_repeat:
        Vector for level ``b`` (the first repeating level); levels ``b+k``
        follow as ``pi_repeat @ R^k``.
    r_matrix:
        The rate matrix of the geometric tail.
    tail_spectral_radius, condition_i_minus_r, i_minus_r_inv:
        ``sp(R)`` (below 1), the exact 1-norm condition number of
        ``I - R`` and ``(I - R)^{-1}``.
    diagnostics:
        :class:`SolverDiagnostics` of the solve that produced this solution.
    """

    boundary_pi: list[np.ndarray]
    pi_repeat: np.ndarray
    r_matrix: np.ndarray
    first_repeating_level: int
    tail_spectral_radius: float = field(repr=False)
    condition_i_minus_r: float = field(repr=False)
    i_minus_r_inv: np.ndarray = field(repr=False)
    diagnostics: Optional[SolverDiagnostics] = None
    #: Cumulative powers ``[I, R, R^2, ...]`` grown lazily by
    #: :meth:`level_vector`; each new level costs one matrix multiply
    #: instead of a fresh ``matrix_power`` (O(m^3 log n)) per call.
    _r_powers: list = field(init=False, repr=False)
    _r_powers_lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._r_powers = [np.eye(self.r_matrix.shape[0])]
        self._r_powers_lock = threading.Lock()

    def level_probability(self, n: int) -> float:
        """Return ``P(level == n)``."""
        return float(self.level_vector(n).sum())

    def level_vector(self, n: int) -> np.ndarray:
        """Return the stationary sub-vector of level ``n``."""
        b = self.first_repeating_level
        if n < 0:
            raise ValidationError(f"level must be nonnegative, got {n}")
        if n < b:
            return self.boundary_pi[n]
        return self.pi_repeat @ self._r_power(n - b)

    def _r_power(self, k: int) -> np.ndarray:
        """Return ``R^k`` from the cumulative-power cache, extending it."""
        powers = self._r_powers
        if k < len(powers):
            return powers[k]
        with self._r_powers_lock:
            while len(powers) <= k:
                powers.append(powers[-1] @ self.r_matrix)
        return powers[k]

    def phase_marginal(self) -> np.ndarray:
        """Return the marginal over repeating phases, ``sum_{n>=b} pi_n``."""
        return self.pi_repeat @ self.i_minus_r_inv

    def tail_mass(self) -> float:
        """Return ``P(level >= first repeating level)``."""
        return float(self.phase_marginal().sum())

    def mean_level(self) -> float:
        """Return ``E[level]``."""
        b = self.first_repeating_level
        total = sum(i * float(v.sum()) for i, v in enumerate(self.boundary_pi))
        inv = self.i_minus_r_inv
        r = self.r_matrix
        ones = np.ones(r.shape[0])
        # sum_{k>=0} (b + k) pi_b R^k = b pi_b (I-R)^{-1} + pi_b R (I-R)^{-2}
        total += b * float(self.pi_repeat @ inv @ ones)
        total += float(self.pi_repeat @ r @ inv @ inv @ ones)
        return total

    def second_moment_level(self) -> float:
        """Return ``E[level^2]``."""
        b = self.first_repeating_level
        total = sum(i * i * float(v.sum()) for i, v in enumerate(self.boundary_pi))
        inv = self.i_minus_r_inv
        r = self.r_matrix
        ones = np.ones(r.shape[0])
        s0 = float(self.pi_repeat @ inv @ ones)
        s1 = float(self.pi_repeat @ r @ inv @ inv @ ones)
        # sum k^2 R^k = R (I + R) (I - R)^{-3}
        s2 = float(self.pi_repeat @ r @ (np.eye(r.shape[0]) + r) @ inv @ inv @ inv @ ones)
        total += b * b * s0 + 2.0 * b * s1 + s2
        return total

    def total_mass(self) -> float:
        """Return the total probability mass (should be 1)."""
        return _total_mass(self.boundary_pi, self.pi_repeat, self.i_minus_r_inv)


class QbdProcess:
    """A level-independent QBD with an irregular boundary.

    Levels ``0..b-1`` ("boundary") may have arbitrary phase counts; levels
    ``b, b+1, ...`` share the repeating blocks.  All blocks are supplied as
    *nonnegative rate blocks*; diagonals are derived internally so that the
    full generator has zero row sums.

    Parameters
    ----------
    boundary_local:
        ``boundary_local[i]`` — within-level rates of boundary level ``i``
        (square, diagonal ignored), for ``i = 0..b-1``.
    boundary_up:
        ``boundary_up[i]`` — rates level ``i -> i+1`` for ``i = 0..b-1``
        (the last maps boundary phases into the repeating phase set).
    boundary_down:
        ``boundary_down[i]`` — rates level ``i+1 -> i`` for ``i = 0..b-1``
        (the last maps repeating phases down into boundary level ``b-1``).
    a0, a1, a2:
        Repeating up/local/down rate blocks (``a1`` diagonal ignored).  The
        down block out of level ``b`` is ``boundary_down[b-1]``; its row
        sums may differ from ``a2``'s, which is handled exactly.
    """

    def __init__(
        self,
        boundary_local: Sequence[np.ndarray],
        boundary_up: Sequence[np.ndarray],
        boundary_down: Sequence[np.ndarray],
        a0: np.ndarray,
        a1: np.ndarray,
        a2: np.ndarray,
    ):
        self.b = len(boundary_local)
        if len(boundary_up) != self.b or len(boundary_down) != self.b:
            raise ValidationError(
                f"need as many up/down blocks as boundary levels: "
                f"{len(boundary_up)=}, {len(boundary_down)=}, expected {self.b}"
            )
        self.boundary_local = [_as_matrix(m, f"boundary_local[{i}]") for i, m in enumerate(boundary_local)]
        self.boundary_up = [_as_matrix(m, f"boundary_up[{i}]") for i, m in enumerate(boundary_up)]
        self.boundary_down = [_as_matrix(m, f"boundary_down[{i}]") for i, m in enumerate(boundary_down)]
        self.a0 = _as_matrix(a0, "a0")
        self.a1 = _as_matrix(a1, "a1")
        self.a2 = _as_matrix(a2, "a2")
        self.m = self.a1.shape[0]
        self._validate_shapes()

    def _validate_shapes(self) -> None:
        dims = [m.shape[0] for m in self.boundary_local] + [self.m]
        for i in range(self.b):
            if self.boundary_local[i].shape != (dims[i], dims[i]):
                raise ValidationError(f"boundary_local[{i}] must be {dims[i]}x{dims[i]}")
            if self.boundary_up[i].shape != (dims[i], dims[i + 1]):
                raise ValidationError(
                    f"boundary_up[{i}] must be {dims[i]}x{dims[i + 1]}, "
                    f"got {self.boundary_up[i].shape}"
                )
            if self.boundary_down[i].shape != (dims[i + 1], dims[i]):
                raise ValidationError(
                    f"boundary_down[{i}] must be {dims[i + 1]}x{dims[i]}, "
                    f"got {self.boundary_down[i].shape}"
                )
        for name, mat in (("a0", self.a0), ("a1", self.a1), ("a2", self.a2)):
            if mat.shape != (self.m, self.m):
                raise ValidationError(f"{name} must be {self.m}x{self.m}, got {mat.shape}")

    # ------------------------------------------------------------------
    def solve(self) -> QbdSolution:
        """Compute the stationary distribution (matrix-geometric form).

        Every failure path raises a typed :class:`~repro.robustness.ReproError`
        subclass; the returned solution carries :class:`SolverDiagnostics`.
        Memoization lives one level up, in :func:`cached_solution`, keyed on
        the analysis inputs that define the process.
        """
        with span("qbd.solve", boundary_levels=self.b, phases=self.m) as sp:
            solution = self._solve_inner()
            diag = solution.diagnostics
            if diag is not None:
                sp.set("method", diag.method)
                sp.set("spectral_radius", diag.spectral_radius)
                sp.set("boundary_residual", diag.boundary_residual)
        counter_inc("qbd.solves")
        if diag is not None and diag.wall_time is not None:
            observe("qbd.solve.seconds", diag.wall_time)
        return solution

    def _solve_inner(self) -> QbdSolution:
        start = time.perf_counter()
        stack = ChainStack.of([self])
        r, r_diag = solve_r_matrix_with_diagnostics(self.a0, stack.a1_full[0], self.a2)
        r_scale = _block_scale(stack.a0, stack.a1_full, stack.a2)
        r_residual = r_diag.residual if r_diag.residual is not None else 0.0
        solved = _boundary_stage(stack, r[None], np.array([r_residual]), r_scale)
        _raise_failed_gate(solved)
        spectral = np.array([r_diag.spectral_radius])
        if solved.verdicts[0] == "suspect":
            escalated = self._escalate(stack, solved, r_scale)
            if escalated is not None:
                solved, spectral = escalated, None  # R moved: derive sp(R) afresh
        solved = _gate_tail(solved, spectral)
        _raise_failed_gate(solved)
        return _assemble(solved, 0, r_diag.rungs, time.perf_counter() - start)

    def _escalate(
        self, stack: ChainStack, solved: _Solved, r_scale: np.ndarray
    ) -> "Optional[_Solved]":
        """Precision-escalation rung for a ``suspect`` solve.

        One Newton polish of R (exact Kronecker linearization) plus a
        compensated extended-precision re-solve of the boundary system.
        Returns the escalated stage, or None when the rung failed or its
        bound does not strictly shrink (escalation never makes a result
        *less* trustworthy).
        """
        polished, r_residual, _ = newton_polish_r(solved.r[0], self.a0, stack.a1_full[0], self.a2)
        try:
            candidate = _boundary_stage(
                stack, polished[None], np.array([r_residual]), r_scale, refined=True
            )
        except (ReproError, np.linalg.LinAlgError):
            return None
        if candidate.failures[0] is not None:
            return None
        counter_inc("qbd.trust.escalations")
        if not candidate.error_bound[0] < solved.error_bound[0]:
            return None
        return candidate._replace(error_bound_before_escalation=solved.error_bound)


def cached_solution(key: tuple, compute) -> QbdSolution:
    """Memoize a full :class:`QbdSolution` under the active sweep scope.

    This is the one memo of a QBD solution.  The analysis layers (CS-CQ,
    CS-ID) key it on their own defining inputs (rates plus the exact
    phase-type representations), so a hit skips the chain *assembly* as
    well as the solve; the sweep prefetch (:mod:`repro.perf.batched`)
    seeds it under the same keys.
    A hit returns a shallow copy whose diagnostics carry ``cache_hit=True``;
    outside a scope this is exactly ``compute()``.
    """
    cache = active_cache()
    if cache is None:
        return compute()
    solution, status = cache.get_or_compute_with_status(
        "analysis-solution", key, compute
    )
    if status == "computed":
        return solution
    clone = copy.copy(solution)
    if solution.diagnostics is not None:
        clone.diagnostics = replace(solution.diagnostics, cache_hit=True)
    return clone

