"""Fault-tolerant sweep runner: process isolation, timeouts, resume.

:class:`SweepRunner` executes sweep points in worker subprocesses so that
a hung matrix solve, an out-of-memory simulation, or an outright crash at
one parameter point cannot take down the sweep: the offending point is
classified (``failed`` / ``timeout``), its result becomes NaN in the
assembled figure, and every sibling point completes normally.  Completed
points stream into a :class:`~repro.orchestration.checkpoint
.CheckpointJournal`, so an interrupted sweep — Ctrl-C, SIGTERM, a driver
crash — loses at most the points that were in flight and resumes with
``resume=True`` instead of restarting.

Each of the ``workers`` slots owns a single-process
:class:`~concurrent.futures.ProcessPoolExecutor`.  One process per slot
(rather than one shared pool) is what makes per-point timeouts real: a
deadline miss kills *that slot's* worker process and replaces it, while
the other slots keep computing.  A shared pool cannot kill one hung task
without breaking every in-flight future.

Classification of a point:

``ok``
    The task returned normally.
``degraded``
    The task returned, but with reduced accuracy or certainty: it emitted
    a :class:`~repro.robustness.NearBoundaryWarning` (a solve close to
    the stability boundary), set a truthy ``degraded`` key in its value
    dict (an ``inconclusive`` oracle verdict), or carries solver
    diagnostics with ``degraded=True``.
``suspect``
    The task returned a value, but an invariant contract failed or the
    consistency oracle flagged it — it emitted a
    :class:`~repro.robustness.ContractViolationWarning` or set a truthy
    ``suspect`` key in its value dict.  The value is still usable (it
    plots, it journals); the manifest records that it is questionable.
``failed``
    The task raised (typed :class:`~repro.robustness.ReproError` context
    is carried back across the process boundary) or the worker process
    died (``WorkerCrashed``).
``timeout``
    The per-point deadline expired; the worker was killed and replaced.
    Also the classification of points shed because the *run-level*
    deadline budget expired before they could start.

A slot whose worker crashed or timed out is not resubmitted to
immediately: it backs off (exponential + decorrelated jitter via
:class:`~repro.robustness.BackoffPolicy`, reset on the next success) so a
persistently dying worker — a machine swapping itself to death, a chaos
fault — cannot hot-loop the respawn path while sibling slots do useful
work.
"""

from __future__ import annotations

import signal
import threading
import time
import warnings
from collections import deque
# ``ProcessPoolExecutor`` and ``multiprocessing`` load only on the pool
# path: an in-process sweep never pays for them.
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Iterable, Optional

import json

from ..perf import clear_cache_scope, sweep_cache
from ..robustness import (
    BackoffPolicy,
    ContractViolationWarning,
    NearBoundaryWarning,
    ReproError,
)
from ..telemetry import (
    counter_inc,
    current_collector,
    current_span_id,
    registry,
    span,
    trace_scope,
    tracing_enabled,
)
from . import faults
from .checkpoint import CheckpointJournal
from .deadline import DeadlineBudget
from .manifest import STATUSES, RunManifest, journal_diagnostics
from .spec import SweepPoint, resolve_task

__all__ = ["PointOutcome", "SweepRunner"]


@dataclass(frozen=True)
class PointOutcome:
    """What happened to one sweep point."""

    point: SweepPoint
    status: str
    value: Any = None
    error: "dict | None" = None
    diagnostics: "dict | None" = None
    wall_time: float = 0.0
    resumed: bool = False

    @property
    def ok(self) -> bool:
        """True when the point produced a usable value (ok/degraded/suspect)."""
        return self.status in ("ok", "degraded", "suspect")


def _jsonable(obj: Any) -> Any:
    """Best-effort conversion of error context to JSON-serializable data."""
    try:
        json.dumps(obj)
        return obj
    except (TypeError, ValueError):
        if isinstance(obj, dict):
            return {str(k): _jsonable(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_jsonable(v) for v in obj]
        return repr(obj)


def _error_payload(exc: BaseException) -> dict:
    """Typed-error context, flattened for the trip back to the driver."""
    return {
        "type": type(exc).__name__,
        "message": getattr(exc, "message", None) or str(exc),
        "context": _jsonable(getattr(exc, "context", {}) or {}),
    }


def _execute_point(spec: dict, ship_telemetry: bool = False) -> dict:
    """Run one point inside a worker; classify everything it can throw.

    Returns a plain payload dict (never raises for task-level failures)
    so that :class:`~repro.robustness.ReproError` context and
    :class:`~repro.robustness.SolverDiagnostics` survive the process
    boundary without relying on exception pickling.

    With ``ship_telemetry`` (set by the pool path, where the point runs
    in a subprocess) the worker's metrics delta and — when ``REPRO_TRACE``
    is on — its span records ride back inside the payload under a
    ``"telemetry"`` key, which the driver strips and merges before
    journaling, so journal records stay byte-compatible with PR 2.
    """
    if not ship_telemetry:
        return _run_point(spec)
    # Reset the process-wide registry so the shipped snapshot is this
    # point's delta (slot processes are reused across points), and trace
    # into a fresh scope so the driver can rebase the records onto its
    # own timeline.  Failures here must never fail the point.
    try:
        registry().reset()
        # A fork-started worker inherits the driver's open sweep_cache
        # scope through the copied ContextVar; drop it so the per-point
        # scope below is really per-point (and publishes its stats).
        clear_cache_scope()
    except Exception:  # pragma: no cover - defensive
        pass
    spans = None
    if tracing_enabled():
        with trace_scope("worker-point") as collector:
            payload = _run_point(spec)
        spans = collector.records()
    else:
        payload = _run_point(spec)
    try:
        telemetry: dict = {"metrics": registry().snapshot()}
        if spans:
            telemetry["spans"] = spans
        payload["telemetry"] = telemetry
    except Exception:  # pragma: no cover - defensive
        pass
    return payload


def _run_point(spec: dict) -> dict:
    with span(
        "orchestration.task", task=spec.get("task", ""), label=spec.get("label", "")
    ) as task_span:
        payload = _classify_point(spec)
        task_span.set("status", payload.get("status"))
    return payload


def _classify_point(spec: dict) -> dict:
    label = spec.get("label", "")
    start = time.perf_counter()
    try:
        faults.maybe_trigger(label)  # may crash/hang/raise on demand
        fn = resolve_task(spec["task"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # Per-point cache scope: a point's sub-results (busy-period
            # moments, PH fits, QBD solves) are often shared between the
            # policies evaluated within that point.  Scoped per point, not
            # per worker, so long-lived workers cannot accumulate state.
            # When REPRO_STORE is set (the driver's --store exports it
            # before workers start), sweep_cache() attaches the persistent
            # store, so points deduplicate across processes and runs too.
            with sweep_cache():
                value = fn(**spec["kwargs"])
    except ReproError as exc:
        return {
            "status": "failed",
            "value": None,
            "error": _error_payload(exc),
            "wall_time": time.perf_counter() - start,
        }
    except Exception as exc:  # noqa: BLE001 - isolation layer must catch all
        return {
            "status": "failed",
            "value": None,
            "error": _error_payload(exc),
            "wall_time": time.perf_counter() - start,
        }
    degraded = any(isinstance(w.message, NearBoundaryWarning) for w in caught)
    suspect = any(isinstance(w.message, ContractViolationWarning) for w in caught)
    diagnostics = None
    if isinstance(value, dict):
        value = dict(value)
        diagnostics = value.pop("diagnostics", None)
        degraded = bool(value.pop("degraded", False)) or degraded
        suspect = bool(value.pop("suspect", False)) or suspect
        if diagnostics:
            degraded = degraded or any(
                isinstance(d, dict) and d.get("degraded") for d in diagnostics.values()
            )
    # Suspicion outranks degradation: a degraded-but-consistent point is
    # expected near the boundary, a contract-violating one never is.
    if suspect:
        status = "suspect"
    elif degraded:
        status = "degraded"
    else:
        status = "ok"
    return {
        "status": status,
        "value": value,
        "diagnostics": _jsonable(diagnostics) if diagnostics else None,
        "wall_time": time.perf_counter() - start,
    }


class _WorkerSlot:
    """One worker process (wrapped in a single-process executor).

    The slot's process is reused across points; it is killed and lazily
    replaced when a point times out or the process dies.
    """

    def __init__(self, mp_context):
        self._mp_context = mp_context
        self._executor: "ProcessPoolExecutor | None" = None
        self.item: "tuple[int, SweepPoint] | None" = None
        self.future = None
        self.deadline: "float | None" = None
        self.submitted_at: "float | None" = None
        #: Consecutive crash/timeout count; drives the respawn backoff.
        self.failures: int = 0
        #: Monotonic instant before which this slot takes no new work.
        self.not_before: float = 0.0
        #: Last backoff delay (feeds the decorrelated-jitter recurrence).
        self.last_backoff: "float | None" = None

    @property
    def busy(self) -> bool:
        return self.future is not None

    def submit(self, index: int, point: SweepPoint, timeout: "float | None") -> None:
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=1, mp_context=self._mp_context
            )
        self.item = (index, point)
        # Snapshot the clock *before* handing the item to the executor: the
        # pool's management thread can dispatch it (and the worker can start
        # the point) while this thread is descheduled between submit() and a
        # later perf_counter() call, which would put the telemetry envelope's
        # start after the worker's own span records begin.
        self.submitted_at = time.perf_counter()
        self.future = self._executor.submit(_execute_point, point.as_spec(), True)
        self.deadline = None if timeout is None else time.monotonic() + timeout

    def clear(self) -> None:
        self.item = None
        self.future = None
        self.deadline = None
        self.submitted_at = None

    def kill(self) -> None:
        """Forcibly stop this slot's worker process and discard the pool."""
        executor, self._executor = self._executor, None
        self.clear()
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except OSError:
                pass
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.join(timeout=2.0)
            if process.is_alive():
                try:
                    process.kill()
                except OSError:
                    pass
                process.join(timeout=2.0)

    def shutdown(self) -> None:
        """Graceful shutdown of an idle slot."""
        executor, self._executor = self._executor, None
        self.clear()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


class SweepRunner:
    """Checkpointed, process-isolated executor for sweep points.

    Parameters
    ----------
    workers:
        Worker subprocesses.  ``0`` runs points inline in the driver
        process — no isolation and no timeout enforcement, but the same
        classification, journaling, resume and SIGINT/SIGTERM handling
        (the ``figure`` CLI's default; the stacked-solve prefetch then
        seeds the points' shared cache scope).
    timeout:
        Per-point wall-clock budget in seconds; a point that exceeds it
        is classified ``timeout``, its worker is killed and replaced,
        and the sweep continues.  ``None`` disables reaping.
    journal_path:
        Location of the JSONL checkpoint journal.  Without one, nothing
        is checkpointed (and ``resume`` has no effect).  Each completed
        point appends a line; the file is fsynced once at the end of
        every :meth:`run` call and on interruption.
    manifest_path:
        Location of the run manifest; written at the end of every
        :meth:`run` call and on interruption.
    resume:
        Reuse journaled outcomes: points whose journal record is ``ok``
        or ``degraded`` are returned without recomputation (marked
        ``resumed``); ``failed`` / ``timeout`` points are retried unless
        ``retry_failed_on_resume=False``.  When False, an existing
        journal at ``journal_path`` is discarded.
    mp_context:
        A multiprocessing context or start-method name; defaults to
        ``fork`` where available (cheap workers), else ``spawn``.
    deadline:
        Optional wall-clock budget in seconds for each :meth:`run` call.
        When it expires, points that have not started are classified
        ``timeout`` (error type ``RunDeadlineExceeded``) without running,
        in-flight workers are killed and their points classified the same
        way, and the manifest records ``interrupted="deadline"`` — the
        run *completes with every point accounted for* instead of being
        aborted.
    respawn_backoff:
        :class:`~repro.robustness.BackoffPolicy` spacing a slot's worker
        respawns after crashes/timeouts (consecutive failures grow the
        delay; any success resets it).  ``None`` restores the pre-backoff
        immediate-respawn behavior.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: "float | None" = None,
        journal_path: "Path | str | None" = None,
        manifest_path: "Path | str | None" = None,
        resume: bool = False,
        run_name: str = "sweep",
        mp_context=None,
        poll_interval: float = 0.05,
        retry_failed_on_resume: bool = True,
        deadline: "float | None" = None,
        respawn_backoff: "BackoffPolicy | None" = BackoffPolicy(
            base=0.1, cap=5.0, max_attempts=1_000_000
        ),
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.workers = workers
        self.timeout = timeout
        self.deadline = deadline
        self.respawn_backoff = respawn_backoff
        # Seeded: backoff delays are jittered but reproducible per runner.
        self._respawn_rng = Random(0x5EED)
        self.resume = resume
        self.run_name = run_name
        self.poll_interval = poll_interval
        self.retry_failed_on_resume = retry_failed_on_resume
        self._mp_context = mp_context
        self.journal = CheckpointJournal(journal_path) if journal_path else None
        if self.journal is not None and not resume:
            self.journal.reset()
        self.manifest = (
            RunManifest(
                name=run_name,
                path=manifest_path,
                workers=workers,
                timeout=timeout,
                resume=resume,
            )
            if manifest_path
            else None
        )
        self._completed_this_run = 0
        self._signal: "int | None" = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(self, points: Iterable[SweepPoint]) -> "list[PointOutcome]":
        """Execute the points, returning outcomes in input order.

        May be called repeatedly on one runner (e.g. once per figure
        series); the journal and manifest accumulate across calls.
        """
        points = list(points)
        with span(
            "orchestration.sweep", run=self.run_name, points=len(points)
        ) as sweep_span:
            outcomes = self._dispatch(points)
            sweep_span.set("completed", self._completed_this_run)
        return outcomes

    def _dispatch(self, points: "list[SweepPoint]") -> "list[PointOutcome]":
        outcomes: "list[Optional[PointOutcome]]" = [None] * len(points)
        queue: "deque[tuple[int, SweepPoint]]" = deque()
        for index, point in enumerate(points):
            record = self._resumable_record(point)
            if record is not None:
                outcome = PointOutcome(
                    point=point,
                    status=record["status"],
                    value=record.get("value"),
                    error=record.get("error"),
                    diagnostics=record.get("diagnostics"),
                    wall_time=record.get("wall_time", 0.0),
                    resumed=True,
                )
                outcomes[index] = outcome
                if self.manifest is not None:
                    self.manifest.add_point(outcome)
            else:
                queue.append((index, point))
        budget = DeadlineBudget(self.deadline) if self.deadline is not None else None
        if self.workers == 0:
            return self._run_inline(queue, outcomes, budget)
        return self._run_pool(queue, outcomes, budget)

    def summary(self) -> str:
        """One-line status summary of everything run so far."""
        if self.manifest is not None:
            counts = self.manifest.as_dict()["counts"]
        else:
            counts = {"total": self._completed_this_run}
        parts = [f"{counts.get('total', 0)} points"]
        parts += [
            f"{counts[k]} {k}"
            for k in (*STATUSES, "resumed")
            if counts.get(k)
        ]
        return f"[sweep {self.run_name}] " + ", ".join(parts)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _resumable_record(self, point: SweepPoint) -> "dict | None":
        if not self.resume or self.journal is None:
            return None
        record = self.journal.get(point.key)
        if record is None:
            return None
        if record.get("status") in ("ok", "degraded") or not self.retry_failed_on_resume:
            return record
        return None  # failed/timeout: retry on resume

    def _complete(
        self,
        index: int,
        point: SweepPoint,
        payload: dict,
        outcomes: "list[Optional[PointOutcome]]",
    ) -> PointOutcome:
        outcome = PointOutcome(
            point=point,
            status=payload["status"],
            value=payload.get("value"),
            error=payload.get("error"),
            diagnostics=payload.get("diagnostics"),
            wall_time=payload.get("wall_time", 0.0),
        )
        outcomes[index] = outcome
        if self.journal is not None:
            self.journal.record(
                {
                    "key": point.key,
                    "label": point.label,
                    "task": point.task,
                    "kwargs": point.kwargs,
                    "status": outcome.status,
                    "value": outcome.value,
                    "error": outcome.error,
                    "diagnostics": journal_diagnostics(
                        outcome.status, outcome.diagnostics
                    ),
                    "wall_time": outcome.wall_time,
                }
            )
        if self.manifest is not None:
            self.manifest.add_point(outcome)
        self._completed_this_run += 1
        return outcome

    def _check_injected_abort(self, abort_at: "int | None") -> None:
        if abort_at is not None and self._completed_this_run >= abort_at:
            if self.manifest is not None:
                self.manifest.interrupted = "injected-abort"
            raise faults.InjectedAbortError(
                f"injected abort after {self._completed_this_run} completed points"
            )

    def _absorb_telemetry(
        self,
        telemetry: "dict | None",
        point: SweepPoint,
        outcome: PointOutcome,
        submitted_at: "float | None",
    ) -> None:
        """Fold a worker's shipped telemetry into the driver's registry/trace.

        Metrics merge additively into the process-wide registry.  Span
        records are grafted under a synthetic ``orchestration.point``
        envelope spanning [submit, completion] on the driver's timeline
        (the worker's collector has its own epoch, so its records are
        rebased to start at the submit instant).  Telemetry problems are
        swallowed: they must never affect sweep results.
        """
        if not telemetry:
            return
        try:
            metrics = telemetry.get("metrics")
            if metrics:
                registry().merge(metrics)
        except Exception:
            pass
        try:
            spans = telemetry.get("spans")
            if not spans or not tracing_enabled():
                return
            collector = current_collector()
            if collector is None:
                return
            end = collector.now()
            start = end
            if submitted_at is not None:
                start = min(max(0.0, submitted_at - collector.epoch), end)
            # The adopted records are rebased to begin at ``start``; make the
            # envelope long enough to contain their full extent even if the
            # observed submit->absorb window came out shorter (scheduling
            # jitter around either clock snapshot must not produce a child
            # that outlives its parent).
            starts = [r.get("start") for r in spans if r.get("start") is not None]
            ends = [r.get("end") for r in spans if r.get("end") is not None]
            if starts and ends:
                end = max(end, start + (max(ends) - min(starts)))
            point_id = collector.add_complete(
                "orchestration.point",
                start,
                end,
                {"label": point.label, "status": outcome.status},
                parent=current_span_id(),
            )
            collector.adopt(spans, point_id, at=start)
        except Exception:
            pass

    def _persist(self) -> None:
        """End of a run() call: fsync the journal once, write the manifest."""
        try:
            if self.journal is not None:
                self.journal.sync()
        finally:
            self._write_manifest()

    def _write_manifest(self) -> None:
        if self.manifest is not None:
            try:
                snapshot = registry().snapshot()
                if any(snapshot.values()):
                    self.manifest.metrics = snapshot
            except Exception:
                pass
            self.manifest.write()

    def _deadline_payload(self, budget: DeadlineBudget) -> dict:
        """Outcome payload for a point shed by the run-level deadline."""
        return {
            "status": "timeout",
            "value": None,
            "error": {
                "type": "RunDeadlineExceeded",
                "message": (
                    f"run deadline of {self.deadline:g}s expired before this "
                    "point could complete; shed without (finishing) computing"
                ),
                "context": {"deadline": self.deadline, "elapsed": budget.elapsed()},
            },
            "wall_time": 0.0,
        }

    def _shed_remaining(self, queue, outcomes, budget: DeadlineBudget) -> None:
        """Classify every not-yet-started point as deadline-shed."""
        if self.manifest is not None:
            self.manifest.interrupted = "deadline"
        while queue:
            index, point = queue.popleft()
            self._complete(index, point, self._deadline_payload(budget), outcomes)

    def _apply_respawn_backoff(self, slot: "_WorkerSlot") -> None:
        """Space out this slot's next submission after a crash/timeout."""
        slot.failures += 1
        if self.respawn_backoff is None:
            return
        delay = self.respawn_backoff.delay(
            slot.failures, slot.last_backoff, self._respawn_rng
        )
        slot.last_backoff = delay
        slot.not_before = time.monotonic() + delay
        counter_inc("orchestration.respawn.backoff")

    def _run_inline(self, queue, outcomes, budget=None) -> "list[PointOutcome]":
        abort_at = faults.abort_after()
        previous_handlers = self._install_signal_handlers()
        try:
            while queue:
                self._raise_if_signaled()
                if budget is not None and budget.expired:
                    self._shed_remaining(queue, outcomes, budget)
                    break
                index, point = queue.popleft()
                payload = _execute_point(point.as_spec())
                self._complete(index, point, payload, outcomes)
                self._check_injected_abort(abort_at)
        finally:
            self._restore_signal_handlers(previous_handlers)
            self._persist()
        return outcomes

    def _run_pool(self, queue, outcomes, budget=None) -> "list[PointOutcome]":
        mp_context = self._mp_context
        if mp_context is None or isinstance(mp_context, str):
            import multiprocessing

            method = mp_context or (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            mp_context = multiprocessing.get_context(method)
        slots = [_WorkerSlot(mp_context) for _ in range(self.workers)]
        abort_at = faults.abort_after()
        previous_handlers = self._install_signal_handlers()
        try:
            while queue or any(slot.busy for slot in slots):
                self._raise_if_signaled()
                if budget is not None and budget.expired:
                    # Shed the queue, then reap in-flight workers: every
                    # point ends classified, nothing keeps running past
                    # the budget.
                    self._shed_remaining(queue, outcomes, budget)
                    for slot in slots:
                        if slot.busy:
                            index, point = slot.item
                            slot.kill()
                            self._complete(
                                index, point, self._deadline_payload(budget), outcomes
                            )
                    break
                now = time.monotonic()
                for slot in slots:
                    if not slot.busy and queue and now >= slot.not_before:
                        index, point = queue.popleft()
                        slot.submit(index, point, self.timeout)
                busy = [slot for slot in slots if slot.busy]
                if not busy:
                    # Every idle slot is backing off (or the queue drained
                    # between checks): sleep instead of spinning.
                    time.sleep(self.poll_interval)
                    continue
                wait(
                    [slot.future for slot in busy],
                    timeout=self.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                for slot in busy:
                    if slot.future is None:
                        continue
                    if slot.future.done():
                        index, point = slot.item
                        submitted_at = slot.submitted_at
                        payload = self._collect_payload(slot)
                        error_type = (payload.get("error") or {}).get("type")
                        if error_type == "WorkerCrashed":
                            self._apply_respawn_backoff(slot)
                        else:
                            slot.failures = 0
                            slot.last_backoff = None
                            slot.not_before = 0.0
                        telemetry = payload.pop("telemetry", None)
                        outcome = self._complete(index, point, payload, outcomes)
                        self._absorb_telemetry(telemetry, point, outcome, submitted_at)
                    elif slot.deadline is not None and now >= slot.deadline:
                        index, point = slot.item
                        slot.kill()  # reap the hung worker; siblings keep going
                        self._apply_respawn_backoff(slot)
                        self._complete(
                            index,
                            point,
                            {
                                "status": "timeout",
                                "value": None,
                                "error": {
                                    "type": "PointTimeout",
                                    "message": (
                                        f"point exceeded the {self.timeout:g}s "
                                        "budget and its worker was killed"
                                    ),
                                    "context": {"timeout": self.timeout},
                                },
                                "wall_time": self.timeout,
                            },
                            outcomes,
                        )
                    self._check_injected_abort(abort_at)
        except BaseException:
            for slot in slots:
                slot.kill()
            raise
        else:
            for slot in slots:
                slot.shutdown()
        finally:
            self._restore_signal_handlers(previous_handlers)
            self._persist()
        return outcomes

    def _collect_payload(self, slot: _WorkerSlot) -> dict:
        future = slot.future
        try:
            payload = future.result()
        except BrokenExecutor:
            # The worker process died mid-task (crash, OOM kill, ...): the
            # pool is broken, so discard it; the slot rebuilds on next use.
            slot.kill()
            return {
                "status": "failed",
                "value": None,
                "error": {
                    "type": "WorkerCrashed",
                    "message": (
                        "worker process died before returning a result "
                        "(crash / out-of-memory / external kill)"
                    ),
                    "context": {},
                },
                "wall_time": 0.0,
            }
        except Exception as exc:  # pragma: no cover - defensive
            slot.clear()
            return {
                "status": "failed",
                "value": None,
                "error": _error_payload(exc),
                "wall_time": 0.0,
            }
        slot.clear()
        return payload

    # Signal handling (pool and inline loops alike): the first signal only
    # sets a flag, checked between points; the run loop turns it into an
    # orderly teardown (every completed point's journal line is
    # already appended) and re-raises so the process exits with the
    # conventional status.  A second signal before the loop has acted
    # raises at once, so a long in-process point can still be stopped;
    # the loop's ``finally`` fsyncs the journal and writes the manifest
    # either way.

    def _on_signal(self, signum, _frame) -> None:
        pending = self._signal is not None
        self._signal = signum
        if pending:
            self._raise_if_signaled()

    def _raise_if_signaled(self) -> None:
        if self._signal is None:
            return
        signum = self._signal
        self._signal = None
        if self.manifest is not None:
            try:
                name = signal.Signals(signum).name
            except ValueError:  # pragma: no cover
                name = str(signum)
            self.manifest.interrupted = name
        if signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    def _install_signal_handlers(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):  # pragma: no cover
                pass
        return previous

    def _restore_signal_handlers(self, previous) -> None:
        if not previous:
            return
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
