"""Sweep prefetch: solve a row's QBDs in stacked LAPACK calls, seed the cache.

The figure 4-6 sweeps evaluate the same A0/A1/A2 block structure at every
grid point; the per-point path pays one Python-loop QBD solve per point.
:func:`prefetch_sweep_solutions` gathers every point's analysis, stacks
the analyses' own QBD blocks into ``(N, m, m)`` tensors by shape, runs
:mod:`repro.markov.qbd`'s stacked rung-1 kernels over each stack (the
logarithmic reduction and R recovery of :func:`solve_r_matrix_batched`,
the boundary solve, the trust assessment), and gates the slices.  Each
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
* Same code: the per-point rung-1 solve runs the same stacked kernels on
  a stack of one, and batched ``matmul``/``solve``/``inv`` dispatch the
  same LAPACK routine per slice whatever else the stack holds, so a
  seeded solution is bit-identical to the one the per-point solve would
  compute.
* Only the first (``logarithmic-reduction``) rung runs stacked, and only
  solutions that pass every per-point acceptance gate (boundary balance, no
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

from ..markov.qbd import (
    QbdSolution,
    _assess_trust,
    _block_scale,
    _solve_boundary,
    _with_diagonal,
    solve_r_matrix_batched,
)
from ..robustness import RungAttempt, SolverDiagnostics
from ..robustness.guards import CONDITION_WARN
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
    a1_full = _with_diagonal(a1, a0, a2)
    r, residual, iterations, accepted = solve_r_matrix_batched(a0, a1_full, a2)
    acc = np.flatnonzero(accepted)
    if not acc.size:
        return 0
    r = r[acc]
    pi, resid_b, ok, offsets, dims, inv, square, bscale = _solve_boundary(
        [blk[acc] for blk in boundary["boundary_local"]],
        [blk[acc] for blk in boundary["boundary_up"]],
        [blk[acc] for blk in boundary["boundary_down"]],
        a0[acc],
        a1[acc],
        a2[acc],
        r,
    )
    cond_est, bound, verdicts = _assess_trust(
        square,
        resid_b,
        bscale,
        r,
        residual[acc],
        _block_scale(a0[acc], a1_full[acc], a2[acc]),
    )
    # The gates of the per-point path.  cond(I - R): same per-slice SVD as
    # its check_conditioning; the warn band stays unseeded so the
    # per-point path emits its warning.  Non-trusted points stay unseeded
    # too; the per-point escalation rung owns them.
    eye_m = np.eye(m)
    sp_r = np.abs(np.linalg.eigvals(r)).max(axis=1)
    cond = np.linalg.cond(eye_m - r)
    pscale = np.maximum(1.0, np.abs(pi).max(axis=1))
    neg_ok = pi.min(axis=1) >= -1e-9 * pscale
    pi = np.clip(pi, 0.0, None)
    tail = (pi[:, None, offsets[b] :] @ inv)[:, 0, :].sum(axis=1)
    mass = pi[:, : offsets[b]].sum(axis=1) + tail
    trusted = np.array([v == "trusted" for v in verdicts], dtype=bool)
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
            np.ascontiguousarray(r[j]),
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
