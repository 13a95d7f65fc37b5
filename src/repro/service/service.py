"""The graceful-degradation query service.

:class:`QueryService` answers batches of :class:`~.query.ScenarioQuery`
capacity-planning questions from a long-lived process, degrading
*predictably* instead of failing when solvers are slow, faulty, or the
service is overloaded:

- **Admission control.**  At most ``queue_limit`` queries are in flight;
  beyond that, new work is shed immediately with a typed
  :class:`~repro.robustness.ServiceOverloadError` carrying a
  ``retry_after`` hint — a fast honest *no* instead of a slow timeout.
- **Deadline budgets.**  Each admitted query starts a
  :class:`~repro.orchestration.DeadlineBudget`; every rung of the
  fidelity ladder converts ``remaining()`` into an ``asyncio.wait_for``
  timeout, so one user-facing promise bounds all solver work below it.
- **Fidelity ladder.**  Rungs from :mod:`.fidelity`, best first:
  ``exact`` → ``cached`` → ``truncated`` → ``bound``.  Every answer is
  tagged with the level actually used plus the per-rung attempt log.
- **Honesty by validation.**  Exact and truncated values must fall
  inside the closed-form coarse bounds; a silently corrupted solve
  (chaos mode ``perturb``) is rejected and the ladder descends, so the
  fidelity tag never overstates the answer.
- **Circuit breaker.**  Repeated exact-solver failures in a parameter
  region (bucketed loads) open the breaker for that region; while open,
  the exact rung is skipped outright and queries degrade immediately.
- **Retry with backoff.**  Transient worker faults
  (:class:`~.chaos.SimulatedWorkerCrash`) are retried with decorrelated
  jitter inside the rung's deadline slice.

Everything is observable: per-query spans (``service.query``), counters
(``service.submitted/answered/shed/rejected/degraded/retried`` and
``service.fidelity.<level>``), and a JSON manifest whose totals are
derived from the answers themselves — tests assert they match the
telemetry counters exactly.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

from ..contracts.answers import DEADLINE_SLACK
from ..orchestration.deadline import DeadlineBudget
from ..perf import SweepCache
from ..robustness import (
    BackoffPolicy,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServiceOverloadError,
    atomic_write_json,
    retry_with_backoff,
)
from ..telemetry import counter_inc, registry, span
from . import fidelity as F
from .chaos import SimulatedWorkerCrash, apply_perturbation, maybe_fault
from .query import FIDELITY_LEVELS, ScenarioQuery, ServiceAnswer

__all__ = ["QueryService"]

#: Minimum budget slice (seconds) worth starting an exact solve with.
EXACT_MIN_BUDGET = 0.05

#: Budget slice reserved below each expensive rung so the ladder always
#: has time left to fall back to the closed-form floor.
LADDER_RESERVE = 0.02

#: Telemetry counters the manifest cross-checks (service-owned ones).
_SERVICE_COUNTERS = (
    "service.submitted",
    "service.answered",
    "service.shed",
    "service.rejected",
    "service.degraded",
    "service.retried",
)


def _error_payload(exc: BaseException) -> "dict[str, Any]":
    payload: "dict[str, Any]" = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    context = getattr(exc, "context", None)
    if context:
        payload["context"] = {k: repr(v) for k, v in context.items()}
    return payload


class QueryService:
    """Long-lived, deadline-aware scenario-query service (stdlib only).

    Parameters
    ----------
    workers:
        Solver threads.  Expensive rungs run here; cheap rungs (cache
        replay, closed-form bounds) run on the coordinator so an answer
        can always be produced even when every worker is wedged.
    queue_limit:
        Maximum queries in flight before admission control sheds.
    default_deadline:
        Budget (seconds) for queries that do not carry their own.
    cache:
        Shared :class:`~repro.perf.SweepCache` backing the ``cached``
        rung; a private one is created when omitted, bounded by
        ``max_cache_entries`` and attached to the persistent store the
        ``REPRO_STORE`` environment asks for (so validated answers
        survive restarts).  A caller-supplied cache is used as-is.
    max_cache_entries:
        LRU bound for the private cache.  The service is the one
        long-lived cache owner in the codebase — unbounded, it would
        grow for the life of the process.
    breaker:
        Circuit breaker guarding the exact rung, keyed by
        :meth:`region_key`.
    retry_policy:
        Backoff policy for transient worker faults inside a rung.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        queue_limit: int = 16,
        default_deadline: "float | None" = 5.0,
        cache: "SweepCache | None" = None,
        max_cache_entries: "int | None" = 4096,
        breaker: "CircuitBreaker | None" = None,
        retry_policy: "BackoffPolicy | None" = None,
        name: str = "service",
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.workers = workers
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.name = name
        if cache is None:
            from ..perf.store import store_from_env

            cache = SweepCache(
                max_entries=max_cache_entries, store=store_from_env()
            )
        self.cache = cache
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            failure_threshold=3, cooldown=5.0
        )
        self.retry_policy = retry_policy if retry_policy is not None else BackoffPolicy(
            base=0.01, cap=0.25, max_attempts=3
        )
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"repro-{name}"
        )
        self._inflight = 0
        self._closed = False

    # ----------------------------------------------------------------- #
    # Lifecycle
    # ----------------------------------------------------------------- #

    def close(self) -> None:
        """Stop accepting work and release the worker threads.

        Abandoned rungs (hung solves past their timeout) cannot be
        cancelled mid-solve; their threads die with the process.
        """
        self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- #
    # Admission
    # ----------------------------------------------------------------- #

    @staticmethod
    def region_key(query: ScenarioQuery) -> str:
        """Circuit-breaker bucket: loads rounded down to a 0.1 grid.

        A pathological corner of the parameter space (say, near the
        CS-CQ stability boundary) trips the breaker for *that* region
        without denying exact answers everywhere else.
        """
        bucket_s = math.floor(float(query.rho_s) * 10.0) / 10.0
        bucket_l = math.floor(float(query.rho_l) * 10.0) / 10.0
        return f"rho_s~{bucket_s:g},rho_l~{bucket_l:g}"

    def _retry_after_hint(self) -> float:
        """Rough time until a slot frees: in-flight work over worker count."""
        per_query = self.default_deadline if self.default_deadline else 1.0
        return round(max(0.1, per_query * self._inflight / self.workers), 3)

    async def submit(self, query: ScenarioQuery) -> ServiceAnswer:
        """Admit and answer one query (or shed it).

        Raises :class:`~repro.robustness.ServiceOverloadError` when the
        admission queue is full — callers that prefer a manifest row over
        an exception should use :meth:`run_batch_async`.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        counter_inc("service.submitted")
        if self._inflight >= self.queue_limit:
            counter_inc("service.shed")
            raise ServiceOverloadError(
                f"admission queue full ({self._inflight} in flight, "
                f"limit {self.queue_limit})",
                retry_after=self._retry_after_hint(),
                queue_limit=self.queue_limit,
            )
        self._inflight += 1
        try:
            return await self._answer(query)
        finally:
            self._inflight -= 1

    # ----------------------------------------------------------------- #
    # The ladder coordinator
    # ----------------------------------------------------------------- #

    async def _run_on_worker(
        self, fn: Callable[[], Any], budget: DeadlineBudget, stage: str
    ) -> Any:
        """Run ``fn`` on a worker thread under the budget's remaining slice.

        A timed-out rung is *abandoned* (threads cannot be killed); the
        coordinator keeps the reserve slice so cheaper rungs still fit.
        """
        timeout = budget.require(LADDER_RESERVE, stage) - LADDER_RESERVE
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, fn)
        # An abandoned rung may error long after we stopped listening;
        # retrieve the exception so asyncio doesn't log it as lost.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        if math.isinf(timeout):
            return await future
        return await asyncio.wait_for(asyncio.shield(future), timeout)

    def _retry_rung(
        self, rung: Callable[[], "dict[str, float]"], name: str, label: str,
        budget: DeadlineBudget, note_retry: Callable[..., None],
    ) -> "dict[str, float]":
        """Run one rung's solve, retrying injected worker crashes in budget."""
        def attempt() -> "dict[str, float]":
            maybe_fault(label)
            return rung()

        return retry_with_backoff(
            attempt,
            policy=self.retry_policy,
            retry_on=SimulatedWorkerCrash,
            description=f"{name} solve for {label}",
            give_up_after=max(0.0, budget.remaining() - LADDER_RESERVE),
            on_retry=note_retry,
        )

    async def _answer(self, query: ScenarioQuery) -> ServiceAnswer:
        label = query.resolved_label()
        deadline = query.deadline if query.deadline is not None else self.default_deadline
        budget = DeadlineBudget(deadline)
        attempts: "list[dict[str, Any]]" = []
        retries = 0

        def note_retry(attempt: int, error: BaseException, delay: float) -> None:
            nonlocal retries
            retries += 1
            counter_inc("service.retried")

        with span("service.query", label=label, deadline=deadline) as sp:
            try:
                bounds = F.coarse_bounds(query)
            except (ReproError, ValueError, KeyError, TypeError) as exc:
                # The point itself is malformed; no fidelity level can
                # answer it.  Reject, do not degrade.
                counter_inc("service.rejected")
                sp.set("status", "rejected")
                return ServiceAnswer(
                    label=label,
                    status="rejected",
                    error=_error_payload(exc),
                    attempts=tuple(attempts),
                    elapsed=budget.elapsed(),
                    deadline=deadline,
                )

            values, level = await self._descend(
                query, label, budget, bounds, attempts, note_retry
            )
            if values is None:
                counter_inc("service.rejected")
                sp.set("status", "rejected")
                exc = DeadlineExceededError(
                    f"deadline budget exhausted before any fidelity level "
                    f"could answer {label!r}",
                    budget=deadline,
                    elapsed=budget.elapsed(),
                )
                return ServiceAnswer(
                    label=label,
                    status="rejected",
                    error=_error_payload(exc),
                    attempts=tuple(attempts),
                    elapsed=budget.elapsed(),
                    deadline=deadline,
                    retries=retries,
                )

            answer = ServiceAnswer(
                label=label,
                status="answered",
                fidelity=level,
                values=values,
                bounds=bounds,
                verdict=F.verdict_for(values, bounds, query.threshold, level),
                attempts=tuple(attempts),
                elapsed=budget.elapsed(),
                deadline=deadline,
                retries=retries,
            )
            self._check_answer_contract(answer)
            counter_inc("service.answered")
            counter_inc(f"service.fidelity.{level}")
            if answer.degraded:
                counter_inc("service.degraded")
            sp.set("status", "answered")
            sp.set("fidelity", level)
            return answer

    async def _descend(
        self,
        query: ScenarioQuery,
        label: str,
        budget: DeadlineBudget,
        bounds: "dict[str, Any]",
        attempts: "list[dict[str, Any]]",
        note_retry: Callable[..., None],
    ) -> "tuple[Optional[dict[str, float]], Optional[str]]":
        """Walk the fidelity ladder; return (values, level) or (None, None)."""
        region = self.region_key(query)

        # --- exact: QBD + contracts, breaker-guarded, budget-gated ----- #
        started = budget.elapsed()
        record: "dict[str, Any]" = {"rung": "exact"}
        try:
            self.breaker.check(region)
            budget.require(EXACT_MIN_BUDGET, "exact")
            raw = await self._run_on_worker(
                lambda: self._retry_rung(
                    lambda: F.exact_rung(query), "exact", label, budget, note_retry
                ),
                budget,
                "exact",
            )
            values = apply_perturbation(label, raw)
            F.validate_against_bounds(values, bounds)
        except (CircuitOpenError, DeadlineExceededError) as exc:
            # Skipped, not failed: the solver never ran, so the breaker
            # state must not move.
            record.update(outcome="skipped", error=_error_payload(exc))
        except asyncio.TimeoutError:
            self.breaker.record_failure(region)
            record.update(
                outcome="timeout",
                error={"type": "RungTimeout", "message": "exact rung abandoned"},
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # solver failure: typed errors, violations
            self.breaker.record_failure(region)
            record.update(outcome="failed", error=_error_payload(exc))
        else:
            self.breaker.record_success(region)
            record["outcome"] = "accepted"
            record["elapsed"] = round(budget.elapsed() - started, 6)
            attempts.append(record)
            F.store_answer(query, values, self.cache)
            return values, "exact"
        record["elapsed"] = round(budget.elapsed() - started, 6)
        attempts.append(record)

        # --- cached: replay a validated exact answer ------------------- #
        started = budget.elapsed()
        record = {"rung": "cached"}
        cached = F.cached_rung(query, self.cache) if not budget.expired else None
        if cached is not None:
            record["outcome"] = "accepted"
            record["elapsed"] = round(budget.elapsed() - started, 6)
            attempts.append(record)
            return cached, "cached"
        record.update(
            outcome="skipped",
            error={
                "type": "CacheMiss" if not budget.expired else "DeadlineExceededError",
                "message": "no stored exact answer for this point"
                if not budget.expired
                else "budget exhausted before cache lookup",
            },
        )
        record["elapsed"] = round(budget.elapsed() - started, 6)
        attempts.append(record)

        # --- truncated: budget-sized chain approximation --------------- #
        started = budget.elapsed()
        record = {"rung": "truncated"}
        try:
            raw = await self._run_on_worker(
                lambda: self._retry_rung(
                    lambda: F.truncated_rung(query, budget.remaining()),
                    "truncated", label, budget, note_retry,
                ),
                budget,
                "truncated",
            )
            values = apply_perturbation(label, raw)
            F.validate_against_bounds(values, bounds)
        except DeadlineExceededError as exc:
            record.update(outcome="skipped", error=_error_payload(exc))
        except asyncio.TimeoutError:
            record.update(
                outcome="timeout",
                error={"type": "RungTimeout", "message": "truncated rung abandoned"},
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # inapplicable (non-exp sizes) or faulty
            record.update(outcome="failed", error=_error_payload(exc))
        else:
            record["outcome"] = "accepted"
            record["elapsed"] = round(budget.elapsed() - started, 6)
            attempts.append(record)
            return values, "truncated"
        record["elapsed"] = round(budget.elapsed() - started, 6)
        attempts.append(record)

        # --- bound: the closed-form floor ------------------------------ #
        # The bounds are already computed, so a coordinator that woke late
        # past the budget still answers from them within the contract slack.
        record = {"rung": "bound"}
        if budget.expired and budget.elapsed() > budget.budget + DEADLINE_SLACK:
            record.update(
                outcome="skipped",
                error={
                    "type": "DeadlineExceededError",
                    "message": "budget and its slack exhausted before the bound rung",
                },
            )
            attempts.append(record)
            return None, None
        record["outcome"] = "accepted"
        record["elapsed"] = 0.0
        attempts.append(record)
        return F.bound_values(bounds), "bound"

    def _check_answer_contract(self, answer: ServiceAnswer) -> None:
        """Evaluate the ``service-answer`` contract before releasing it.

        A violation here means the *service* built an inconsistent answer
        (mis-tagged fidelity, blown deadline, value outside its own
        bounds) — raise rather than serve it.
        """
        from ..contracts import contracts_enabled, evaluate

        if not contracts_enabled():
            return
        for result in evaluate("service-answer", answer):
            if not result.passed:
                raise result.as_violation()

    # ----------------------------------------------------------------- #
    # Batch mode
    # ----------------------------------------------------------------- #

    async def run_batch_async(
        self, queries: Sequence[ScenarioQuery]
    ) -> "list[ServiceAnswer]":
        """Answer a batch concurrently; shed queries become rejected rows.

        Exactly one :class:`~.query.ServiceAnswer` per input query, in
        input order — a shed query is *answered-or-rejected*, never lost.
        """

        async def one(query: ScenarioQuery) -> ServiceAnswer:
            try:
                return await self.submit(query)
            except ServiceOverloadError as exc:
                return ServiceAnswer(
                    label=query.resolved_label(),
                    status="rejected",
                    error=_error_payload(exc),
                    deadline=query.deadline,
                )

        return list(await asyncio.gather(*(one(q) for q in queries)))

    def run_batch(self, queries: Sequence[ScenarioQuery]) -> "list[ServiceAnswer]":
        """Synchronous wrapper around :meth:`run_batch_async`."""
        return asyncio.run(self.run_batch_async(queries))

    # ----------------------------------------------------------------- #
    # Manifest
    # ----------------------------------------------------------------- #

    def build_manifest(self, answers: Iterable[ServiceAnswer]) -> "dict[str, Any]":
        """Manifest dict: per-query rows plus totals derived from them.

        The totals are computed from the answers, *not* copied from the
        telemetry counters — tests assert the two agree, which is the
        acceptance check that shed/degraded/retried/tripped accounting is
        honest end to end.
        """
        rows = [a.as_dict() for a in answers]
        by_fidelity = {level: 0 for level in FIDELITY_LEVELS}
        shed = rejected = answered = degraded = retried = 0
        for row in rows:
            if row["status"] == "answered":
                answered += 1
                by_fidelity[row["fidelity"]] += 1
                if row["fidelity"] != FIDELITY_LEVELS[0]:
                    degraded += 1
            elif (row.get("error") or {}).get("type") == "ServiceOverloadError":
                shed += 1
            else:
                rejected += 1
            retried += int(row.get("retries") or 0)
        counters = registry().snapshot().get("counters", {})
        return {
            "schema": 1,
            "kind": "service-manifest",
            "name": self.name,
            "config": {
                "workers": self.workers,
                "queue_limit": self.queue_limit,
                "default_deadline": self.default_deadline,
            },
            "totals": {
                "submitted": len(rows),
                "answered": answered,
                "shed": shed,
                "rejected": rejected,
                "degraded": degraded,
                "retried": retried,
                "tripped": self.breaker.trip_count(),
                "by_fidelity": by_fidelity,
            },
            "breaker": self.breaker.snapshot(),
            "cache": self.cache.stats(),
            "telemetry": {
                name: counters.get(name, 0) for name in _SERVICE_COUNTERS
            },
            "queries": rows,
        }

    def write_manifest(
        self, answers: Iterable[ServiceAnswer], path: "Path | str"
    ) -> Path:
        """Atomically write :meth:`build_manifest` as JSON; return the path."""
        path = Path(path)
        atomic_write_json(path, self.build_manifest(answers))
        return path
