"""Sweep prefetch: solve a row's QBDs in stacked LAPACK calls, seed the cache.

The figure 4-6 sweeps evaluate the same A0/A1/A2 block structure at every
grid point; the per-point path pays one Python-loop QBD solve per point.
:func:`prefetch_sweep_solutions` builds every point's analysis, stacks the
analyses' own QBD blocks into ``(N, m, m)`` tensors by shape, and runs the
logarithmic-reduction iteration, the R-matrix recovery, the boundary
solves and the trust assessment as batched ``numpy.linalg`` calls over
the leading axis (:func:`repro.markov.qbd.solve_r_matrix_batched`).  Each
accepted solution is seeded into the active sweep cache under the
``analysis-solution`` key the analysis itself looks up, so the per-point
loop finds it in memory and neither assembles nor solves that chain.
Every value, NaN, warning, contract check and diagnostic still comes from
the per-point loop.  A fault injected at :meth:`QbdProcess.solve
<repro.markov.qbd.QbdProcess.solve>` therefore reaches only the chains the
prefetch left unseeded; to break every exact solve, break
:func:`solve_r_matrix_batched` here as well.

Correctness model
-----------------
* Batched ``matmul``/``solve``/``inv``/``eigvals``/``cond`` dispatch the
  identical LAPACK routine per slice, so a seeded solution is
  bit-identical to the one the per-point rung-1 solve would compute.
* Only the first (``logarithmic-reduction``) rung runs stacked, and only
  solutions that pass every scalar acceptance gate (boundary balance, no
  material negatives, ``sp(R) < 1``, ``cond(I - R)`` below the warn band,
  normalization, a ``trusted`` verdict) are seeded.  Anything else stays
  unseeded and the per-point path runs its full fallback ladder for it,
  with its typed errors, warnings and degradation.  A LAPACK error inside
  a stack leaves that whole stack unseeded.
* Points whose analysis constructor raises (unstable loads, invalid
  inputs, failed fits) are skipped; the per-point path raises the same
  error and reports it.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..markov.qbd import R_MAX_ITER, R_TOL, QbdSolution, solve_r_matrix_batched
from ..robustness import RungAttempt, SolverDiagnostics
from ..robustness.guards import CONDITION_WARN
from ..robustness.trust import compose_bound, condest_1, trust_verdicts
from ..telemetry import counter_inc, span
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
    if seeded:
        # Counter parity with the per-point path: every seeded point is one
        # QBD solve whose R came from the logarithmic-reduction rung.
        counter_inc("qbd.solves", seeded)
        counter_inc("qbd.r_matrix.solves", seeded)
        counter_inc("qbd.r_matrix.method.logarithmic-reduction", seeded)


def _with_diagonal_batched(local: np.ndarray, out_rates: np.ndarray) -> np.ndarray:
    """Batched :meth:`QbdProcess._with_diagonal` over ``(N, m, m)`` stacks."""
    block = local.copy()
    di = np.arange(block.shape[-1])
    block[:, di, di] = 0.0
    block[:, di, di] = -(block.sum(axis=2) + out_rates)
    return block


def _solve_stack(items: list, cache) -> int:
    """Solve one shape-homogeneous stack and seed its accepted points.

    ``items`` holds ``(analysis-solution key, QbdProcess)`` pairs; returns
    how many solutions were seeded.
    """
    t0 = time.perf_counter()
    processes = [process for _, process in items]
    b = processes[0].b
    m = processes[0].m
    a0 = np.stack([p.a0 for p in processes])
    a1 = np.stack([p.a1 for p in processes])
    a2 = np.stack([p.a2 for p in processes])
    boundary = {
        name: [np.stack([getattr(p, name)[i] for p in processes]) for i in range(b)]
        for name in ("boundary_local", "boundary_up", "boundary_down")
    }
    a1_full = _with_diagonal_batched(a1, a0.sum(axis=2) + a2.sum(axis=2))
    r, residual, iterations, accepted = solve_r_matrix_batched(
        a0, a1_full, a2, tol=R_TOL, max_iter=R_MAX_ITER
    )
    acc = np.flatnonzero(accepted)
    if not acc.size:
        return 0
    eye_m = np.eye(m)
    sp_r = np.abs(np.linalg.eigvals(r[acc])).max(axis=1)
    pi, resid_b, ok, offsets, dims, inv, square, bscale = _solve_boundary_batched(
        [blk[acc] for blk in boundary["boundary_local"]],
        [blk[acc] for blk in boundary["boundary_up"]],
        [blk[acc] for blk in boundary["boundary_down"]],
        a0[acc],
        a1[acc],
        a2[acc],
        r[acc],
    )
    # cond(I - R): same per-slice SVD as the scalar check_conditioning; the
    # warn band stays unseeded so the per-point path emits its warning.
    cond = np.linalg.cond(eye_m - r[acc])
    pscale = np.maximum(1.0, np.abs(pi).max(axis=1))
    neg_ok = pi.min(axis=1) >= -1e-9 * pscale
    pi = np.clip(pi, 0.0, None)
    tail = (pi[:, None, offsets[b] :] @ inv)[:, 0, :].sum(axis=1)
    mass = pi[:, : offsets[b]].sum(axis=1) + tail
    # Trust: the scalar ``_assess_trust`` arithmetic over the whole stack,
    # so a seeded point carries the bit-identical verdict.  Non-trusted
    # points stay unseeded; the per-point escalation rung owns them.
    cond_boundary = np.asarray(condest_1(square))
    cond_i_minus_r = np.asarray(condest_1(eye_m - r[acc]))
    r_scale = np.maximum.reduce(
        [
            np.abs(a0[acc]).max(axis=(1, 2)),
            np.abs(a1_full[acc]).max(axis=(1, 2)),
            np.abs(a2[acc]).max(axis=(1, 2)),
            np.ones(acc.size),
        ]
    )
    bound = compose_bound(
        cond_boundary, resid_b, bscale, cond_i_minus_r, residual[acc], r_scale
    )
    cond_est = np.maximum(cond_boundary, cond_i_minus_r)
    trusted = np.array([v == "trusted" for v in trust_verdicts(bound)], dtype=bool)
    good = (
        ok
        & neg_ok
        & (sp_r < 1.0)
        & np.isfinite(cond)
        & (cond <= CONDITION_WARN)
        & (0.999999 < mass)
        & (mass < 1.000001)
        & trusted
    )
    wall_share = (time.perf_counter() - t0) / acc.size
    for j in np.flatnonzero(good):
        gi = int(acc[j])
        attempt = RungAttempt(
            "logarithmic-reduction",
            accepted=True,
            residual=float(residual[gi]),
            iterations=int(iterations[gi]),
        )
        solution = QbdSolution.from_batched(
            [
                np.ascontiguousarray(pi[j, offsets[i] : offsets[i] + dims[i]])
                for i in range(b)
            ],
            np.ascontiguousarray(pi[j, offsets[b] :]),
            np.ascontiguousarray(r[gi]),
            b,
            tail_spectral_radius=float(sp_r[j]),
            condition_i_minus_r=float(cond[j]),
            i_minus_r_inv=np.ascontiguousarray(inv[j]),
            identity=eye_m,
            diagnostics=SolverDiagnostics(
                method="logarithmic-reduction",
                rungs=(attempt,),
                residual=float(residual[gi]),
                spectral_radius=float(sp_r[j]),
                iterations=int(iterations[gi]),
                wall_time=wall_share,
                condition_i_minus_r=float(cond[j]),
                boundary_residual=float(resid_b[j]),
                condition_estimate=float(cond_est[j]),
                error_bound=float(bound[j]),
                trust="trusted",
            ),
        )
        cache.seed("analysis-solution", items[gi][0], solution)
    return int(good.sum())


def _solve_boundary_batched(
    boundary_local: list[np.ndarray],
    boundary_up: list[np.ndarray],
    boundary_down: list[np.ndarray],
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    r: np.ndarray,
) -> tuple:
    """Batched boundary linear stage (mirrors ``QbdProcess._boundary_stage``).

    Returns ``(pi, residual, ok, offsets, dims, i_minus_r_inv, square,
    scale)`` over the leading axis — the square system stack and scales
    ride along so the caller can run the stacked trust assessment on the
    exact matrices that were solved.  The square solve runs batched; the
    rare points it cannot balance get the scalar path's exact
    least-squares fallback, per point.
    """
    k, m = a1.shape[0], a1.shape[1]
    b = len(boundary_local)
    dims = [blv.shape[1] for blv in boundary_local] + [m]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    total = int(offsets[-1])
    big = np.zeros((k, total, total))

    def put(i: int, j: int, block: np.ndarray) -> None:
        big[:, offsets[i] : offsets[i] + dims[i], offsets[j] : offsets[j] + dims[j]] += block

    for i in range(b):
        down_rates = (
            boundary_down[i - 1].sum(axis=2) if i > 0 else np.zeros((k, dims[0]))
        )
        local = _with_diagonal_batched(
            boundary_local[i], boundary_up[i].sum(axis=2) + down_rates
        )
        put(i, i, local)
        put(i, i + 1, boundary_up[i])
    for i in range(b):
        put(i + 1, i, boundary_down[i])
    local_b = _with_diagonal_batched(
        a1, a0.sum(axis=2) + boundary_down[b - 1].sum(axis=2)
    )
    put(b, b, local_b + r @ a2)

    i_minus_r_inv = np.linalg.inv(np.eye(m) - r)
    norm_row = np.ones((k, total))
    norm_row[:, offsets[b] :] = i_minus_r_inv.sum(axis=2)
    square = np.ascontiguousarray(np.swapaxes(big, 1, 2))
    square[:, -1, :] = norm_row
    rhs = np.zeros((k, total, 1))
    rhs[:, -1, 0] = 1.0
    scale = np.maximum(1.0, np.abs(big).max(axis=(1, 2)))
    try:
        pi = np.linalg.solve(square, rhs)[..., 0]
        residual = np.abs(pi[:, None, :] @ big).max(axis=(1, 2))
    except np.linalg.LinAlgError:
        pi = np.zeros((k, total))
        residual = np.full(k, np.inf)
    ok = residual <= 1e-7 * scale
    for i in np.flatnonzero(~ok):
        a = np.vstack([big[i].T, norm_row[i][None, :]])
        rhs_ls = np.zeros(total + 1)
        rhs_ls[-1] = 1.0
        sol, *_ = np.linalg.lstsq(a, rhs_ls, rcond=None)
        resid_i = float(np.abs(sol @ big[i]).max())
        if resid_i <= 1e-7 * scale[i]:
            pi[i] = sol
            residual[i] = resid_i
            ok[i] = True
    return pi, residual, ok, offsets, dims, i_minus_r_inv, square, scale
