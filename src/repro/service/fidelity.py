"""The service's two answer sources for scenario queries.

A query is answered by the best source the deadline budget (and the fault
weather) allows:

``exact``
    Full QBD analyses of all three policies, invariant contracts
    evaluated, result validated against the coarse bounds.  Populates
    the service's shared sweep cache.  A point whose validated exact
    answer is already memoized is replayed from it instead of solved
    again, and still tagged ``exact``: the solve is deterministic, so
    the replay is bit-identical to a fresh solve, and :func:`answer_key`
    folds in the solver schema version
    (:data:`~repro.orchestration.spec.SCHEMA_VERSION`), so an answer a
    different solver version stored is never found.
``bound``
    Closed-form stability-region bounds only: ``E[S_s] <= E[T_S]`` and,
    inside the Dedicated stability region, the policy-dominance upper
    bound ``E[T_S] <= E[T_S]^Dedicated`` (cycle stealing only helps
    shorts).  Microseconds, always available for a valid point.

The bounds double as a *validator* for the exact source: a value outside
the certified interval is rejected (the exact rung fails and the bound
answers) — a silently corrupted solve or replay degrades the answer's
fidelity tag instead of lying through it.  There is no level between the
two: the paper rejects truncating the 2D chain as neither accurate nor
robust enough (DESIGN.md §4, the truncation ablation).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..contracts.answers import BOUNDS_SLACK
from ..core import (
    CsCqAnalysis,
    CsIdAnalysis,
    DedicatedAnalysis,
    UnstableSystemError,
    cs_cq_is_stable,
    cs_id_is_stable,
    dedicated_is_stable,
)
from ..orchestration.spec import point_key
from ..perf import SweepCache
from ..queueing import Mg1Queue
from ..robustness import ContractViolation
from .query import POLICIES, ScenarioQuery

__all__ = [
    "answer_key",
    "bound_values",
    "cached_rung",
    "coarse_bounds",
    "exact_rung",
    "store_answer",
    "validate_against_bounds",
    "verdict_for",
]

_INF = float("inf")


def answer_key(query: ScenarioQuery) -> str:
    """Cache key of a query's answer: content hash of the scenario point.

    The label, threshold and deadline are deliberately excluded — two
    queries about the same point share an answer regardless of how they
    were phrased or budgeted.
    """
    case = query.workload()
    return point_key(
        "service-answer",
        {
            "rho_s": float(query.rho_s),
            "rho_l": float(query.rho_l),
            "mean_short": case.mean_short,
            "mean_long": case.mean_long,
            "short_scv": case.short_scv,
            "long_scv": case.long_scv,
        },
    )


# --------------------------------------------------------------------------- #
# Coarse bounds (the ladder's floor, and the exact rung's validator)
# --------------------------------------------------------------------------- #


def coarse_bounds(query: ScenarioQuery) -> "dict[str, dict[str, Any]]":
    """Certified closed-form bounds on ``E[T_S]`` per policy.

    For each policy: ``stable`` (Theorem 1), ``lower`` (the mean short
    size — response includes service), and ``upper`` (the Dedicated
    M/G/1 closed form where it applies, by short-job policy dominance;
    ``inf`` when Dedicated is unstable but the policy itself still is
    stable, since the dominance argument then gives no finite cap).
    """
    case = query.workload()
    rho_s, rho_l = float(query.rho_s), float(query.rho_l)
    lower = case.mean_short
    dedicated_stable = dedicated_is_stable(rho_s, rho_l)
    if dedicated_stable and rho_s > 0:
        params = case.params(rho_s, rho_l)
        dedicated_upper = Mg1Queue(params.lam_s, params.short_service).mean_response_time()
    elif dedicated_stable:
        dedicated_upper = lower  # no arrivals: response is pure service
    else:
        dedicated_upper = _INF
    bounds: "dict[str, dict[str, Any]]" = {}
    for policy, stable in (
        ("Dedicated", dedicated_stable),
        ("CS-ID", cs_id_is_stable(rho_s, rho_l)),
        ("CS-CQ", cs_cq_is_stable(rho_s, rho_l)),
    ):
        if not stable:
            bounds[policy] = {"stable": False, "lower": _INF, "upper": _INF}
        else:
            # Dominance: cycle stealing only helps shorts, so Dedicated's
            # closed form caps CS-ID and CS-CQ wherever it is finite.
            bounds[policy] = {"stable": True, "lower": lower, "upper": dedicated_upper}
    return bounds


def bound_values(bounds: "dict[str, dict[str, Any]]") -> "dict[str, float]":
    """The ``bound`` rung's answer: the conservative (upper) estimates.

    SLA planning must not promise what the bound cannot certify, so the
    reported value is the upper end of the interval; an unstable policy
    reports ``inf``.
    """
    return {
        policy: (_INF if not b["stable"] else float(b["upper"]))
        for policy, b in bounds.items()
    }


def validate_against_bounds(
    values: "dict[str, float]",
    bounds: "dict[str, dict[str, Any]]",
    slack: float = BOUNDS_SLACK,
) -> None:
    """Reject values outside the certified bounds (within ``slack``).

    Raises :class:`~repro.robustness.ContractViolation` naming the first
    offending policy.  Non-finite values (unstable / not-computed) are
    exempt — the bounds only certify finite answers.
    """
    for policy, value in values.items():
        if policy not in bounds or value is None or not math.isfinite(value):
            continue
        b = bounds[policy]
        if not b["stable"]:
            raise ContractViolation(
                f"{policy}: finite E[T_S] reported for an unstable policy",
                contract="service-answer-bounds",
                observed=value,
            )
        lower, upper = float(b["lower"]), float(b["upper"])
        if value < lower * (1.0 - slack):
            raise ContractViolation(
                f"{policy}: E[T_S] below the service-time floor",
                contract="service-answer-bounds",
                observed=value,
                expected=lower,
                tolerance=slack,
            )
        if math.isfinite(upper) and value > upper * (1.0 + slack):
            raise ContractViolation(
                f"{policy}: E[T_S] above the Dedicated dominance bound",
                contract="service-answer-bounds",
                observed=value,
                expected=upper,
                tolerance=slack,
            )


# --------------------------------------------------------------------------- #
# Rungs
# --------------------------------------------------------------------------- #


def exact_rung(query: ScenarioQuery) -> "dict[str, float]":
    """Full-fidelity answer: QBD analyses plus invariant contracts.

    Per-policy ``E[T_S]``; an unstable policy reports ``inf``.  Evaluated
    contracts that fail raise :class:`ContractViolation` (the rung is
    rejected; the bound answers).  This function always solves; the
    *service* first looks the point up with :func:`cached_rung` and only
    calls it on a miss.  It stores the values under :func:`answer_key`
    only after they survive bounds validation, so the memo never holds
    a corrupted answer (see :func:`store_answer`), and a replayed answer
    is bit-identical to what this function would return.
    """
    case = query.workload()
    params = case.params(float(query.rho_s), float(query.rho_l))
    classes = {
        "Dedicated": DedicatedAnalysis,
        "CS-ID": CsIdAnalysis,
        "CS-CQ": CsCqAnalysis,
    }
    values: "dict[str, float]" = {}
    captured: "dict[str, Any]" = {}
    for policy in POLICIES:
        try:
            analysis = classes[policy](params)
            values[policy] = float(analysis.mean_response_time_short())
            captured[policy] = analysis
        except UnstableSystemError:
            values[policy] = _INF
    from ..contracts import contracts_enabled, evaluate

    if contracts_enabled():
        for policy, analysis in captured.items():
            for result in evaluate("analysis", analysis, params=params):
                if not result.passed:
                    raise result.as_violation()
    # An exact answer whose own error bound says the leading digits are
    # in doubt must not be tagged exact: refuse the rung so the answer is
    # served at a fidelity whose label matches its accuracy.
    for policy, analysis in captured.items():
        diag = getattr(analysis, "solver_diagnostics", None)
        if diag is not None and diag.trust == "untrusted":
            raise ContractViolation(
                f"{policy}: exact solve untrusted "
                f"(error bound {diag.error_bound!r})",
                contract="trust",
                observed=diag.error_bound,
            )
    return values


def store_answer(
    query: ScenarioQuery,
    values: "dict[str, float]",
    cache: "SweepCache | None",
    key: "str | None" = None,
) -> None:
    """Publish a *validated* exact answer for later replay.

    ``key`` is the query's :func:`answer_key` when the caller already has
    it.  Publishing records no hit or miss: the :func:`cached_rung`
    lookup that preceded the solve already counted the miss.
    """
    if cache is None:
        return
    cache.seed("service-answer", key or answer_key(query), dict(values))


def cached_rung(
    query: ScenarioQuery,
    cache: "SweepCache | None",
    key: "str | None" = None,
) -> "Optional[dict[str, float]]":
    """A previously computed exact answer for the point, or None on a miss.

    The exact rung's replay: it never computes, a hit is bit-identical to
    the exact answer it replays (and costs microseconds), and on a miss
    the service solves.  When the service's cache carries a persistent store
    tier (``REPRO_STORE``), the lookup also consults it — validated
    answers then survive restarts, and a restarted service replays them
    instead of re-solving.  ``key`` is the query's :func:`answer_key`
    when the caller already has it.
    """
    if cache is None:
        return None
    found, value = cache.lookup("service-answer", key or answer_key(query))
    if not found:
        return None
    return dict(value)


def verdict_for(
    values: "dict[str, float]",
    bounds: "dict[str, dict[str, Any]]",
    threshold: "Optional[float]",
    fidelity: str,
) -> "Optional[dict[str, Any]]":
    """Which policies keep ``E[T_S]`` under the threshold, at this fidelity.

    ``meets`` / ``fails`` / ``unknown`` partition the policies.  For the
    ``bound`` fidelity the reported values are upper bounds, so ``meets``
    is certified but a value above the threshold is only ``fails`` when
    the *lower* bound already exceeds it (otherwise ``unknown``).
    """
    if threshold is None:
        return None
    meets, fails, unknown = [], [], []
    for policy in POLICIES:
        value = values.get(policy)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            unknown.append(policy)
        elif value <= threshold:
            meets.append(policy)
        elif fidelity == "bound" and bounds.get(policy, {}).get("stable") and (
            float(bounds[policy]["lower"]) <= threshold
        ):
            # The upper bound overshoots but the interval straddles the
            # threshold: the coarse rung genuinely does not know.
            unknown.append(policy)
        else:
            fails.append(policy)
    return {
        "threshold": threshold,
        "meets": meets,
        "fails": fails,
        "unknown": unknown,
    }

