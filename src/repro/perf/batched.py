"""Sweep prefetch: solve a row's QBDs in stacked LAPACK calls, seed the cache.

The figure 4-6 sweeps evaluate the same A0/A1/A2 block structure at every
grid point; the per-point path pays one Python-loop QBD solve per point.
:func:`prefetch_sweep_solutions` gathers every point's analysis, stacks
the analyses' own QBD blocks into ``(N, m, m)`` tensors by shape
(:class:`~repro.markov.qbd.ChainStack`), runs the logarithmic-reduction
rung of :func:`solve_r_matrix_batched` over each stack, and hands the
result to :func:`~repro.markov.qbd.trusted_rung1_solutions`, which runs
the per-point boundary stage and tail gates and returns the solutions
to seed.  Each is seeded into the active sweep cache under the
``analysis-solution`` key the analysis itself looks up, so the per-point
loop finds it in memory and neither assembles nor solves that chain.
Every value, NaN, warning, contract check and diagnostic still comes from
the per-point loop.  A fault injected at :meth:`QbdProcess.solve
<repro.markov.qbd.QbdProcess.solve>` therefore reaches only the chains the
prefetch left unseeded; to break every exact solve, break
:func:`solve_r_matrix_batched` here as well.

Correctness model
-----------------
* One path: :mod:`repro.markov.qbd` derives and gates a solved stack's
  tail (boundary balance, material negatives, the trust verdict,
  ``sp(R)``, ``cond(I - R)``, normalization) and assembles the solution
  and its diagnostics in one place; :meth:`QbdProcess.solve` runs the
  same code on a stack of one.  This module holds no gate and builds no
  diagnostics.
* Same arithmetic: batched ``matmul``/``solve``/``inv``/``eigvals``/SVD
  dispatch the same LAPACK routine per slice whatever else the stack
  holds, so a seeded solution is bit-identical to the one the per-point
  solve would compute.
* Only rung 1 runs stacked, and a slice is seeded only when it passes
  every gate with a ``trusted`` verdict and no warning, i.e. exactly when
  the per-point solve would settle on rung 1 without escalating or
  warning.  Anything else stays unseeded and the per-point path runs its
  full fallback ladder for it, with its typed errors, warnings (once per
  point) and degradation.  A LAPACK error inside a stack leaves that
  whole stack unseeded.
* Points whose analysis constructor raises (unstable loads, invalid
  inputs, failed fits) are skipped; the per-point path raises the same
  error and reports it.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..markov.qbd import ChainStack, solve_r_matrix_batched, trusted_rung1_solutions
from ..telemetry import span
from .cache import active_cache

__all__ = ["prefetch_sweep_solutions"]


def prefetch_sweep_solutions(
    case, load_pairs: Sequence[tuple[float, float]], job_class: str
) -> None:
    """Seed the active sweep cache with one row's QBD solutions.

    Builds the analyses the per-point evaluation of ``job_class`` will
    build (CS-ID and CS-CQ for short rows, CS-CQ for long rows), skips
    those already in the cache or its persistent store, and solves the
    rest stacked.  A no-op outside a :func:`~repro.perf.sweep_cache`
    scope.
    """
    cache = active_cache()
    if cache is None:
        return
    from ..core import CsCqAnalysis, CsIdAnalysis

    classes = (CsIdAnalysis, CsCqAnalysis) if job_class == "short" else (CsCqAnalysis,)
    stacks: dict[tuple, list] = {}
    pending: set = set()
    with span(
        "perf.prefetch", case=getattr(case, "name", ""), job_class=job_class
    ) as prefetch_span:
        for rho_s, rho_l in load_pairs:
            for cls in classes:
                try:
                    analysis = cls(case.params(rho_s, rho_l))
                    key = analysis._solution_cache_key()
                    if key in pending or cache.preload("analysis-solution", key):
                        continue
                    process = analysis._build_qbd()
                except Exception:  # noqa: BLE001
                    # The per-point evaluation re-runs this constructor and
                    # owns the error: NaN plus warning, a failed point
                    # status, or the crash an in-process sweep would see.
                    continue
                pending.add(key)
                # (b, m, boundary shapes): the stackable identity of a chain.
                shape = (
                    process.b,
                    process.m,
                    tuple(block.shape for block in process.boundary_local),
                )
                stacks.setdefault(shape, []).append((key, process))
        seeded = 0
        for items in stacks.values():
            try:
                # Non-finite slices fail the acceptance gates and are
                # re-solved per point, which owns their warnings.
                with np.errstate(all="ignore"):
                    seeded += _solve_stack(items, cache)
            except np.linalg.LinAlgError:
                continue  # unseeded: the per-point ladder solves these
        prefetch_span.set("stacked", len(pending))
        prefetch_span.set("seeded", seeded)


def _solve_stack(items: list, cache) -> int:
    """Solve one shape-homogeneous stack and seed its accepted points.

    ``items`` holds ``(analysis-solution key, QbdProcess)`` pairs; returns
    how many solutions were seeded.
    """
    start = time.perf_counter()
    stack = ChainStack.of([process for _, process in items])
    r, residual, iterations, accepted = solve_r_matrix_batched(
        stack.a0, stack.a1_full, stack.a2
    )
    solutions = trusted_rung1_solutions(stack, r, residual, iterations, accepted, start)
    for (key, _), solution in zip(items, solutions):
        if solution is not None:
            cache.seed("analysis-solution", key, solution)
    return sum(solution is not None for solution in solutions)
