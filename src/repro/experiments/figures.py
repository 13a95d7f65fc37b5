"""Regeneration of the paper's result figures (3, 4, 5 and 6).

Every function returns :class:`~repro.experiments.base.Panel` objects whose
series are exactly the curves of the corresponding paper figure; the
benchmarks print them as tables.  Absolute values come from *our* analysis;
the shapes (who wins, by what factor, where the asymptotes sit) are the
reproduction targets, as the paper's own numbers are read off plots.
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core import (
    CsCqAnalysis,
    CsIdAnalysis,
    DedicatedAnalysis,
    LongHostCycle,
    SystemParameters,
    UnstableSystemError,
    cs_cq_long_response_saturated,
    cs_cq_max_rho_s,
    cs_id_max_rho_s,
    dedicated_max_rho_s,
)
from ..perf import sweep_cache
from ..queueing import Mg1Queue
from ..telemetry import span
from ..robustness import (
    ContractViolationWarning,
    NearBoundaryWarning,
    ReproError,
    SolverDiagnostics,
)
from ..workloads import COXIAN_LONG_CASES, EXPONENTIAL_CASES, WorkloadCase
from .base import Panel, Series

__all__ = [
    "figure3_panel",
    "figure4_panels",
    "figure5_panels",
    "figure6_panels",
    "response_time_series",
]

_POLICY_LABELS = ("Dedicated", "CS-Immed-Disp", "CS-Central-Q")


def _closed_form_diagnostics() -> SolverDiagnostics:
    """Trust record for values from closed-form formulas (M/G/1 PK, the
    long-host cycle, the saturated-setup queue): no linear solve is
    involved, so the forward error is a handful of rounding operations —
    bounded by unit roundoff, always ``trusted``."""
    return SolverDiagnostics(
        method="closed-form",
        condition_estimate=1.0,
        error_bound=float(np.finfo(float).eps),
        trust="trusted",
    )


def _safe(value_fn: Callable[[], float]) -> float:
    """Evaluate an analysis, mapping failures to NaN (truncated curve).

    Instability is expected (the curves end at the stability boundary) and
    maps silently to NaN.  Any other typed solver failure — a point where
    even the fallback ladder and graceful degradation gave up — also maps
    to NaN so the sweep completes, but emits a
    :class:`~repro.robustness.NearBoundaryWarning` so it cannot pass
    silently.
    """
    try:
        return value_fn()
    except UnstableSystemError:
        return float("nan")
    except ReproError as exc:
        warnings.warn(
            NearBoundaryWarning(
                f"sweep point skipped ({type(exc).__name__}: {exc}); plotted as NaN"
            ),
            stacklevel=2,
        )
        return float("nan")


def _warn_contract_failures(results) -> bool:
    """Emit one ContractViolationWarning per failed contract result.

    In-sweep contract failures warn instead of raising so the sweep
    completes; the worker shim lifts the warning into the ``suspect``
    point status, and in-process callers see it via the warning system.
    """
    failed = [result for result in results if not result.passed]
    for result in failed:
        warnings.warn(
            ContractViolationWarning(
                f"contract {result.name!r} violated"
                + (f" ({result.detail})" if result.detail else "")
                + f": observed {result.observed:.6g}, "
                f"expected {result.expected:.6g}, "
                f"tolerance {result.tolerance:.6g}"
            ),
            stacklevel=3,
        )
    return bool(failed)


def _policy_point_values(
    params: SystemParameters,
    job_class: str,
    with_diagnostics: bool = False,
) -> "tuple[dict[str, float], dict | None]":
    """All three policies' mean response time at one load point.

    The single point of truth for all sweep modes: the in-process loops
    below call it directly, and the ``response-point`` orchestration task
    calls it inline or inside worker subprocesses.  With
    ``with_diagnostics`` the captured analyses'
    :class:`~repro.robustness.SolverDiagnostics` are returned as
    JSON-ready dicts (for the run manifest).

    Unless contracts are disabled (``REPRO_NO_CONTRACTS`` /
    ``--no-contracts``), the point is checked against the cross-policy
    dominance contracts and each captured analysis against its invariant
    contracts; failures surface as
    :class:`~repro.robustness.ContractViolationWarning`.
    """
    captured: dict[str, object] = {}
    # Diagnostics-only captures: analyses recorded for the trust record in
    # the manifest but deliberately kept out of the contract loop (the
    # long-side CS-CQ chain is already contract-checked when the short row
    # of the same point runs).
    captured_diag: dict[str, object] = {}

    def short_entry(label: str, analysis_cls) -> Callable[[], float]:
        def call() -> float:
            analysis = analysis_cls(params)
            captured[label] = analysis
            return analysis.mean_response_time_short()

        return call

    if job_class == "short":
        values = {
            _POLICY_LABELS[0]: _safe(short_entry(_POLICY_LABELS[0], DedicatedAnalysis)),
            _POLICY_LABELS[1]: _safe(short_entry(_POLICY_LABELS[1], CsIdAnalysis)),
            _POLICY_LABELS[2]: _safe(short_entry(_POLICY_LABELS[2], CsCqAnalysis)),
        }
    else:
        values = {
            _POLICY_LABELS[0]: _safe(
                lambda: Mg1Queue(params.lam_l, params.long_service).mean_response_time()
            ),
            _POLICY_LABELS[1]: _safe(lambda: LongHostCycle(params).mean_response_time_long()),
            _POLICY_LABELS[2]: _safe(lambda: _cs_cq_long(params, capture=captured_diag)),
        }
    from ..contracts import contracts_enabled, evaluate

    if contracts_enabled():
        results = evaluate("point", values, job_class=job_class)
        for analysis in captured.values():
            results.extend(evaluate("analysis", analysis, params=params))
        _warn_contract_failures(results)
    if not with_diagnostics:
        return values, None
    diagnostics = {}
    for source in (captured, captured_diag):
        for label, analysis in source.items():
            # A policy _safe mapped to NaN has no solve to report; asking
            # for its diagnostics would re-run the solve that failed.
            if np.isnan(values[label]):
                continue
            diag = getattr(analysis, "solver_diagnostics", None)
            if diag is not None:
                diagnostics.setdefault(label, diag.as_dict())
    # Policies whose value came from a closed-form formula (Dedicated both
    # classes, CS-ID longs, saturated CS-CQ longs) have no solve behind
    # them; they still carry an explicit trust record in the manifest.
    for label, value in values.items():
        if label not in diagnostics and np.isfinite(value):
            diagnostics[label] = _closed_form_diagnostics().as_dict()
    return values, diagnostics or None


def _sweep_policy_values(
    case: WorkloadCase,
    load_pairs: Sequence[tuple[float, float]],
    job_class: str,
    runner=None,
) -> dict[str, np.ndarray]:
    """Per-policy y-arrays over ``(rho_s, rho_l)`` load pairs.

    With a :class:`~repro.orchestration.SweepRunner`, each pair becomes a
    ``response-point`` sweep point; a failed, crashed or timed-out point
    contributes NaN (same contract as the in-process :func:`_safe` path)
    and the sweep continues.

    When the points run in this process (no runner, or ``workers=0``,
    whose inline points share the figure's cache scope), the row's QBDs
    are first solved stacked and seeded into that scope
    (:func:`repro.perf.batched.prefetch_sweep_solutions`).  Worker
    subprocesses open their own per-point scopes, so a prefetch there
    would be wasted work.
    """
    if runner is None or runner.workers == 0:
        from ..perf.batched import prefetch_sweep_solutions

        prefetch_sweep_solutions(case, load_pairs, job_class)
    out = {label: np.full(len(load_pairs), np.nan) for label in _POLICY_LABELS}
    if runner is None:
        for i, (rho_s, rho_l) in enumerate(load_pairs):
            values, _ = _policy_point_values(case.params(rho_s, rho_l), job_class)
            for label in _POLICY_LABELS:
                out[label][i] = values[label]
        return out

    from dataclasses import asdict

    from ..orchestration.spec import SweepPoint

    points = [
        SweepPoint(
            task="response-point",
            kwargs={
                "case": asdict(case),
                "rho_s": float(rho_s),
                "rho_l": float(rho_l),
                "job_class": job_class,
            },
            label=f"{case.name}/{job_class}/rho_s={rho_s:g}/rho_l={rho_l:g}",
        )
        for rho_s, rho_l in load_pairs
    ]
    for i, outcome in enumerate(runner.run(points)):
        if outcome is None or not outcome.ok or not isinstance(outcome.value, dict):
            continue  # failed/timeout point: stays NaN, sweep continues
        values = outcome.value.get("values", {})
        for label in _POLICY_LABELS:
            value = values.get(label)
            if value is not None:
                out[label][i] = float(value)
    return out


def response_time_series(
    case: WorkloadCase,
    rho_s_values: Sequence[float],
    rho_l: float,
    job_class: str,
    runner=None,
) -> tuple[Series, Series, Series]:
    """Dedicated / CS-ID / CS-CQ mean response time vs ``rho_s``.

    Short-job series are NaN beyond each policy's stability boundary (the
    truncated curves in the paper's plots).  Long-job series extend across
    the whole range, as in the paper: the long host remains stable for all
    ``rho_s`` under every policy (Dedicated's longs never see the shorts;
    CS-ID's long host is autonomous; CS-CQ's longs see the saturated-setup
    M/G/1 once the shorts overload).

    Pass a :class:`~repro.orchestration.SweepRunner` as ``runner`` to
    execute the points in checkpointed worker subprocesses.
    """
    if job_class not in ("short", "long"):
        raise ValueError(f"job_class must be 'short' or 'long', got {job_class!r}")
    xs = np.asarray(list(rho_s_values), dtype=float)
    pairs = [(float(rho_s), float(rho_l)) for rho_s in xs]
    with span(
        "experiments.series", case=case.name, job_class=job_class, points=len(pairs)
    ):
        values = _sweep_policy_values(case, pairs, job_class, runner)
    from ..contracts import check_monotone_series, contracts_enabled

    if contracts_enabled():
        # Heavier short load can only slow every policy down; a dip along
        # the sweep means at least one point solved wrong.
        for label in _POLICY_LABELS:
            _warn_contract_failures(
                check_monotone_series(
                    xs, values[label], label=f"{case.name}/{job_class}/{label}"
                )
            )
    return (
        Series(_POLICY_LABELS[0], xs, values[_POLICY_LABELS[0]]),
        Series(_POLICY_LABELS[1], xs, values[_POLICY_LABELS[1]]),
        Series(_POLICY_LABELS[2], xs, values[_POLICY_LABELS[2]]),
    )


def _response_panels(
    cases: Iterable[WorkloadCase],
    rho_l: float,
    rho_s_values: Sequence[float] | None,
    figure_name: str,
    runner=None,
) -> list[Panel]:
    # One cache scope per figure: the short- and long-job rows of a case
    # solve the same QBDs, and the busy-period fits are constant along a
    # rho_s sweep, so the scope deduplicates across the whole 2x3 grid.
    panels = []
    with span("experiments.figure", figure=figure_name, rho_l=rho_l), sweep_cache():
        rows = []
        for case in cases:
            if rho_s_values is None:
                top = cs_cq_max_rho_s(rho_l)
                xs = np.round(np.arange(0.05, top - 1e-9, 0.05), 10)
            else:
                xs = np.asarray(list(rho_s_values), dtype=float)
            for job_class in ("short", "long"):
                rows.append((case, xs, job_class))
        series_rows = [
            response_time_series(case, xs, rho_l, jc, runner=runner)
            for case, xs, jc in rows
        ]
        for (case, xs, job_class), series in zip(rows, series_rows):
            panels.append(
                Panel(
                    title=(
                        f"{figure_name} ({case.name}) "
                        f"{'How shorts gain' if job_class == 'short' else 'How longs suffer'}"
                        f" - {case.label()}, rho_l={rho_l:g}"
                    ),
                    xlabel="rhos",
                    ylabel=f"Mean response time {job_class} jobs",
                    series=series,
                )
            )
    return panels


def figure4_panels(
    rho_l: float = 0.5, rho_s_values: Sequence[float] | None = None, runner=None
) -> list[Panel]:
    """Figure 4: exponential shorts and longs; 2 rows x 3 cases."""
    return _response_panels(EXPONENTIAL_CASES, rho_l, rho_s_values, "Figure 4", runner)


def figure5_panels(
    rho_l: float = 0.5, rho_s_values: Sequence[float] | None = None, runner=None
) -> list[Panel]:
    """Figure 5: exponential shorts, Coxian longs with C^2 = 8."""
    return _response_panels(COXIAN_LONG_CASES, rho_l, rho_s_values, "Figure 5", runner)


def figure3_panel(rho_l_values: Sequence[float] | None = None) -> Panel:
    """Figure 3: the stability constraint on ``rho_s`` vs ``rho_l``."""
    if rho_l_values is None:
        rho_l_values = np.round(np.arange(0.0, 1.0, 0.02), 10)
    xs = np.asarray(list(rho_l_values), dtype=float)
    return Panel(
        title="Figure 3: Stability condition on rhos",
        xlabel="rhol",
        ylabel="max rhos",
        series=(
            Series("Dedicated", xs, np.array([dedicated_max_rho_s(r) for r in xs])),
            Series("Immed-Disp", xs, np.array([cs_id_max_rho_s(r) for r in xs])),
            Series("Central-Q", xs, np.array([cs_cq_max_rho_s(r) for r in xs])),
        ),
        notes=(
            "All three boundaries are distribution-free; CS-ID's is the "
            "positive root of rho_s^2 + rho_s*rho_l - rho_s - 1 = 0."
        ),
    )


def figure6_panels(
    rho_s: float = 1.5,
    rho_l_values_short: Sequence[float] | None = None,
    rho_l_values_long: Sequence[float] | None = None,
    cases: Iterable[WorkloadCase] = COXIAN_LONG_CASES,
    runner=None,
) -> list[Panel]:
    """Figure 6: response times vs ``rho_l`` at fixed ``rho_s`` (default 1.5).

    Row 1 (shorts): only the cycle-stealing policies are plotted — Dedicated
    is unstable over the whole range since ``rho_s > 1``.  The x range ends
    at the CS-CQ asymptote ``rho_l = 2 - rho_s``.
    Row 2 (longs): all ``rho_l < 1``; where the shorts are overloaded the
    CS-CQ longs see the saturated-setup M/G/1 (every busy period starts
    behind an ``Exp(2 mu_s)`` setup) and the CS-ID long host is autonomous,
    so both curves extend across the full range.
    """
    if rho_l_values_short is None:
        top = 2.0 - rho_s
        rho_l_values_short = np.round(np.arange(0.0, top - 1e-9, 0.025), 10)
    if rho_l_values_long is None:
        rho_l_values_long = np.round(np.arange(0.025, 1.0 - 1e-9, 0.025), 10)

    panels = []
    with span("experiments.figure", figure="Figure 6", rho_s=rho_s), sweep_cache():
        panels.extend(
            _figure6_case_panels(rho_s, rho_l_values_short, rho_l_values_long, cases, runner)
        )
    return panels


def _figure6_case_panels(rho_s, rho_l_values_short, rho_l_values_long, cases, runner):
    xs = np.asarray(list(rho_l_values_short), dtype=float)
    xl = np.asarray(list(rho_l_values_long), dtype=float)
    short_pairs = [(float(rho_s), float(rho_l)) for rho_l in xs]
    long_pairs = [(float(rho_s), float(rho_l)) for rho_l in xl]

    panels = []
    for case in cases:
        short_values = _sweep_policy_values(case, short_pairs, "short", runner)
        panels.append(
            Panel(
                title=f"Figure 6 ({case.name}) How shorts gain - {case.label()}, rho_s={rho_s:g}",
                xlabel="rhol",
                ylabel="Mean response time short jobs",
                series=(
                    Series("CS-Immed-Disp", xs, short_values["CS-Immed-Disp"]),
                    Series("CS-Central-Q", xs, short_values["CS-Central-Q"]),
                ),
                notes="Dedicated is unstable for the whole range (rho_s > 1).",
            )
        )

        long_values = _sweep_policy_values(case, long_pairs, "long", runner)
        panels.append(
            Panel(
                title=f"Figure 6 ({case.name}) How longs suffer - {case.label()}, rho_s={rho_s:g}",
                xlabel="rhol",
                ylabel="Mean response time long jobs",
                series=(
                    Series("Dedicated", xl, long_values["Dedicated"]),
                    Series("CS-Immed-Disp", xl, long_values["CS-Immed-Disp"]),
                    Series("CS-Central-Q", xl, long_values["CS-Central-Q"]),
                ),
                notes="Long host is stable for all rho_l < 1 under every policy.",
            )
        )
    return panels


def _cs_cq_long(params: SystemParameters, capture: dict | None = None) -> float:
    """CS-CQ long response: full chain when shorts stable, else saturated.

    With ``capture``, the chain-backed branch records its analysis under
    the CS-CQ label so the long row's manifest carries the QBD solve's
    trust record (the saturated branch is closed-form and synthesized by
    the caller instead).
    """
    if params.rho_s < 2.0 - params.rho_l:
        analysis = CsCqAnalysis(params)
        if capture is not None:
            capture[_POLICY_LABELS[2]] = analysis
        return analysis.mean_response_time_long()
    return cs_cq_long_response_saturated(params)
