"""Sweep-scoped memoization for the matrix-analytic hot paths.

A figure sweep evaluates the same analyses at dozens of load points, and
most of those evaluations share sub-results: the busy-period moments
``B_L`` / ``B_{N+1}`` depend only on the *long*-job parameters (constant
along a ``rho_s`` sweep), every phase-type fit is keyed by its three input
moments, and the short- and long-job rows of one figure solve the *same*
QBD at the same load points.  This module provides the cache those layers
share.

Design rules
------------
* **Opt-in and scoped.**  Nothing is cached unless a :func:`sweep_cache`
  scope is active; outside a scope every ``cached(...)`` call computes
  directly.  The experiment sweeps (:mod:`repro.experiments.figures`,
  :mod:`repro.experiments.validation`) and the orchestration workers
  each open a scope around one sweep; the cache dies with
  the scope, so long-lived processes cannot accumulate stale state.
* **Correctness-transparent.**  Keys capture *every* input of the
  computation (exact float tuples, raw matrix bytes — never rounded or
  truncated), so a cache hit returns the bit-identical object the miss
  path would have computed.  ``tests/test_perf_cache.py`` pins this
  property across the figure-4/5/6 parameter grids.
* **Observable.**  Per-namespace hit/miss/evicted counters are kept on
  the scope (:meth:`SweepCache.stats`) and surfaced as ``cache.*``
  counters in the run manifest's metrics;
  QBD-level hits are additionally flagged on
  :class:`~repro.robustness.SolverDiagnostics` (``cache_hit=True``) so
  the PR 1 robustness layer stays observable under caching.
* **Two tiers.**  Memory is tier 1; an optional
  :class:`~repro.perf.store.ResultStore` (``REPRO_STORE``) is tier 2, so
  results survive the process.  The store is consulted only on a memory
  miss and written only after a compute; a corrupt store entry is
  quarantined by the store and silently falls through to recompute here —
  the persistent tier can cost time, never correctness.

Namespaces in use:

``busy-moments``
    Busy-period moment triples (:mod:`repro.busy_periods`).
``ph-fit``
    Three-moment phase-type fits (:func:`repro.distributions.fit_phase_type`).
``analysis-solution``
    Full QBD stationary solutions, the one memo of a solve, keyed on the
    *analysis-level* inputs (rates + PH representations, via
    :func:`repro.markov.qbd.cached_solution`), so a hit skips the chain
    assembly as well as the solve.  The sweep prefetch
    (:mod:`repro.perf.batched`) seeds it.
``service-answer``
    Validated query-service answers (:mod:`repro.service.fidelity`),
    which the exact rung replays for a repeated point; with a store
    attached they survive restarts.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, Optional

from ..telemetry import counter_inc, set_span_attribute

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses codec)
    from .store import ResultStore

__all__ = [
    "SweepCache",
    "active_cache",
    "cached",
    "clear_cache_scope",
    "sweep_cache",
    "use_cache",
]

#: The active cache scope (None outside any scope).  A ContextVar so that
#: threads and nested event loops each see their own scope.
_ACTIVE: "ContextVar[Optional[SweepCache]]" = ContextVar(
    "repro_perf_sweep_cache", default=None
)

#: Sentinel for "not in the memo table" (None is a storable value).
_MISSING = object()


class SweepCache:
    """In-memory memo table with per-namespace hit/miss accounting.

    Values are stored as-is and returned as-is: callers treat cached
    objects (distributions, solution arrays) as immutable, which every
    consumer in this codebase already does.

    Thread-safe: the query service shares one long-lived cache across a
    thread pool (see :func:`use_cache`), so store access and the hit/miss
    counters take a lock.  ``compute()`` itself runs *outside* the lock —
    two threads missing on the same key concurrently may both compute,
    but the first stored value wins and both callers receive it, so
    callers still observe one immutable object per key.  Each
    :meth:`get_or_compute` call records exactly one hit or one miss.

    Parameters
    ----------
    max_entries:
        Upper bound on memoized entries; beyond it the least-recently-used
        entry is evicted (counted per-namespace in :attr:`evictions` and
        as ``cache.<ns>.evicted`` telemetry).  ``None`` (the default, used
        by sweep scopes that die with the sweep) means unbounded; the
        query service's long-lived cache sets a bound so it cannot grow
        for the life of the process.
    store:
        Optional persistent second tier (:class:`~repro.perf.store.ResultStore`).
        Consulted on memory miss, written after compute; see
        :func:`sweep_cache` for the ``REPRO_STORE`` env hookup.
    """

    def __init__(
        self,
        max_entries: "Optional[int]" = None,
        store: "Optional[ResultStore]" = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self._entries: "OrderedDict[tuple[str, Hashable], Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.store = store
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.evictions: Counter = Counter()

    # ------------------------------------------------------------------ #
    # Core lookup/insert (lock held by caller)
    # ------------------------------------------------------------------ #

    def _get_locked(self, full_key: "tuple[str, Hashable]") -> Any:
        value = self._entries.get(full_key, _MISSING)
        if value is not _MISSING:
            self._entries.move_to_end(full_key)
        return value

    def _insert_locked(self, full_key: "tuple[str, Hashable]", value: Any) -> Any:
        existing = self._entries.get(full_key, _MISSING)
        if existing is not _MISSING:
            # First store wins so every caller sees the same object.
            self._entries.move_to_end(full_key)
            return existing
        self._entries[full_key] = value
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                (evicted_ns, _), _ = self._entries.popitem(last=False)
                self.evictions[evicted_ns] += 1
        return value

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def get_or_compute(
        self, namespace: str, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Return the memoized value for ``(namespace, key)``, computing once."""
        value, _ = self.get_or_compute_with_status(namespace, key, compute)
        return value

    def get_or_compute_with_status(
        self, namespace: str, key: Hashable, compute: Callable[[], Any]
    ) -> "tuple[Any, str]":
        """Like :meth:`get_or_compute`, plus where the value came from.

        The second element is ``"memory"`` (tier-1 hit), ``"store"``
        (persistent-tier hit, now also memoized) or ``"computed"``.
        Call sites that flag ``cache_hit`` on solver diagnostics use the
        status so a store hit is reported as honestly as a memory hit.
        """
        full_key = (namespace, key)
        with self._lock:
            value = self._get_locked(full_key)
            if value is not _MISSING:
                self.hits[namespace] += 1
                return value, "memory"
            self.misses[namespace] += 1
        found, value = self._store_get(namespace, key)
        if found:
            with self._lock:
                return self._insert_locked(full_key, value), "store"
        value = compute()
        self._store_put(namespace, key, value)
        with self._lock:
            return self._insert_locked(full_key, value), "computed"

    def lookup(self, namespace: str, key: Hashable) -> "tuple[bool, Any]":
        """``(found, value)`` without computing anything on a miss.

        Checks memory, then the persistent store (a store hit is memoized
        so the next lookup is tier-1).  The service fidelity ladder's
        replay rung uses this: "is a validated answer already available"
        is a question, not a computation.  Counts a hit or a miss exactly
        like :meth:`get_or_compute`.
        """
        full_key = (namespace, key)
        with self._lock:
            value = self._get_locked(full_key)
            if value is not _MISSING:
                self.hits[namespace] += 1
                return True, value
            if self.store is None:
                # No tier-2 to consult: settle the miss under the lock we
                # already hold instead of paying a second round-trip.
                self.misses[namespace] += 1
                return False, None
        found, value = self._store_get(namespace, key)
        if found:
            with self._lock:
                self.hits[namespace] += 1
                return True, self._insert_locked(full_key, value)
        with self._lock:
            self.misses[namespace] += 1
        return False, None

    def seed(self, namespace: str, key: Hashable, value: Any) -> Any:
        """Insert a value computed *outside* the cache, without counting.

        The sweep prefetch (:mod:`repro.perf.batched`) solves a row's QBDs
        in stacked LAPACK calls and deposits each per-point result under
        the exact key the per-point path looks up — so those lookups
        (and, via the usual write-through, the persistent store) see an
        entry indistinguishable from a per-point one.  No hit or miss is
        recorded: the per-point lookup that follows counts itself.  First
        store wins, as everywhere else.
        """
        self._store_put(namespace, key, value)
        with self._lock:
            return self._insert_locked((namespace, key), value)

    def contains(self, namespace: str, key: Hashable) -> bool:
        """True when ``(namespace, key)`` is already memoized *in memory*.

        Deliberately does not consult the persistent store: this is the
        cheap "would a lookup be instant" probe.  Use :meth:`lookup` when
        a store hit should count.
        """
        with self._lock:
            return (namespace, key) in self._entries

    def preload(self, namespace: str, key: Hashable) -> bool:
        """True when a lookup of ``(namespace, key)`` will hit memory.

        Like :meth:`contains`, but a memory miss consults the persistent
        store and memoizes a store hit.  No hit or miss is recorded and
        nothing is written back: the lookup that follows counts itself.
        The sweep prefetch uses this to skip chains a warm ``--store``
        rerun already has on disk.
        """
        full_key = (namespace, key)
        with self._lock:
            if full_key in self._entries:
                return True
        found, value = self._store_get(namespace, key)
        if found:
            with self._lock:
                self._insert_locked(full_key, value)
        return found

    def values(self, namespace: str) -> "list[Any]":
        """All values memoized under ``namespace`` (tests use it to
        inspect the solutions a sweep cached)."""
        with self._lock:
            return [v for (ns, _), v in self._entries.items() if ns == namespace]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    # Persistent tier plumbing
    # ------------------------------------------------------------------ #

    def _store_get(self, namespace: str, key: Hashable) -> "tuple[bool, Any]":
        """Tier-2 read; any store failure degrades to a clean miss."""
        store = self.store
        if store is None or not store.persists(namespace):
            return False, None
        from ..robustness import ReproError

        try:
            return store.get(namespace, key)
        except ReproError:
            # Corrupt entry: already quarantined and counted by the
            # store; from the cache's point of view it is a miss — the
            # caller recomputes and the rewrite repairs the store.
            return False, None
        except Exception:
            # The persistent tier must never be able to fail a solve.
            return False, None

    def _store_put(self, namespace: str, key: Hashable, value: Any) -> None:
        """Tier-2 write-through; failures leave the store a bit colder."""
        store = self.store
        if store is None or not store.persists(namespace):
            return
        try:
            store.put(namespace, key, value)
        except Exception:
            # SerializationError (value outside the codec registry) or
            # any I/O failure: the value stays memory-only this run.
            pass

    def stats(self) -> dict:
        """JSON-ready hit/miss summary (totals plus per-namespace detail)."""
        with self._lock:
            hits = Counter(self.hits)
            misses = Counter(self.misses)
            evictions = Counter(self.evictions)
            entries = len(self._entries)
        namespaces = sorted(set(hits) | set(misses) | set(evictions))
        total_hits = sum(hits.values())
        total_misses = sum(misses.values())
        lookups = total_hits + total_misses
        stats = {
            "entries": entries,
            "max_entries": self.max_entries,
            "hits": total_hits,
            "misses": total_misses,
            "evicted": sum(evictions.values()),
            "hit_rate": (total_hits / lookups) if lookups else 0.0,
            "by_namespace": {
                ns: {
                    "hits": hits[ns],
                    "misses": misses[ns],
                    "evicted": evictions[ns],
                    "hit_rate": (
                        hits[ns] / (hits[ns] + misses[ns])
                        if hits[ns] + misses[ns]
                        else 0.0
                    ),
                }
                for ns in namespaces
            },
        }
        if self.store is not None:
            stats["store"] = self.store.session_stats()
        return stats


def active_cache() -> Optional[SweepCache]:
    """The cache of the innermost active :func:`sweep_cache` scope, or None."""
    return _ACTIVE.get()


def clear_cache_scope() -> None:
    """Drop any inherited cache scope in this context.

    A worker process forked while the driver held a :func:`sweep_cache`
    scope open inherits that scope through the copied ContextVar, which
    would silently defeat per-point scoping: the worker's own scopes nest
    inside a scope that never exits in the worker, so entries accumulate
    for the life of the process and stats are never published.  The
    orchestration worker shim calls this once per point before opening
    its own scope (it still joins the persistent store, if enabled, via
    ``REPRO_STORE`` — the env var crosses the process boundary).
    """
    _ACTIVE.set(None)


@contextmanager
def sweep_cache(
    store: "Optional[ResultStore]" = None,
) -> Iterator[SweepCache]:
    """Activate a memoization scope for the enclosed sweep.

    Nested scopes share the outermost cache (so a caller wrapping
    several figure sweeps deduplicates across them, and per-figure scopes
    stay no-ops inside it); the cache is discarded when the outermost
    scope exits.

    When ``store`` is None, the persistent tier is taken from the
    ``REPRO_STORE`` environment variable (see
    :func:`~repro.perf.store.store_from_env`) — so enabling the store on
    a CLI automatically reaches every scope the run opens, including
    orchestration worker subprocesses.
    """
    existing = _ACTIVE.get()
    if existing is not None:
        yield existing
        return
    if store is None:
        from .store import store_from_env

        store = store_from_env()
    cache = SweepCache(store=store)
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)
        _publish_cache_stats(cache)


@contextmanager
def use_cache(cache: SweepCache) -> Iterator[SweepCache]:
    """Activate an *existing* cache as the scope for the enclosed block.

    :func:`sweep_cache` creates a scope that dies with the sweep; the
    query service instead owns one long-lived :class:`SweepCache` shared
    across queries and worker threads, and enters it around each rung
    execution.  Because the ContextVar is per-thread/per-task, every pool
    thread must enter the scope itself — inheriting it from the
    submitting thread is not possible.

    Unlike :func:`sweep_cache`, exiting does *not* publish stats (the
    cache outlives the scope; its owner publishes once at shutdown), and
    an already-active scope is replaced rather than shared (the service
    must never leak entries into an ambient figure-sweep scope).
    """
    token = _ACTIVE.set(cache)
    try:
        yield cache
    finally:
        _ACTIVE.reset(token)


def _publish_cache_stats(cache: SweepCache) -> None:
    """Surface a dying scope's hit/miss stats as telemetry.

    Per-namespace counts become registry counters (folded across worker
    processes by the runner) and, when a span is open around the scope,
    one ``cache`` span attribute.  Once per scope, never per lookup — the
    lookup fast path stays untouched.  (Store counters are *not* re-
    published here: the store fires ``store.*`` at event time, so one
    store shared by many scopes is counted once.)  Telemetry must not be
    able to fail the sweep, so any error here is swallowed.
    """
    try:
        stats = cache.stats()
        for ns, detail in stats["by_namespace"].items():
            if detail["hits"]:
                counter_inc(f"cache.{ns}.hits", detail["hits"])
            if detail["misses"]:
                counter_inc(f"cache.{ns}.misses", detail["misses"])
            if detail["evicted"]:
                counter_inc(f"cache.{ns}.evicted", detail["evicted"])
        set_span_attribute("cache", stats)
    except Exception:
        pass


def cached(namespace: str, key: Hashable, compute: Callable[[], Any]) -> Any:
    """Memoize ``compute()`` under the active sweep scope, if any.

    Outside a :func:`sweep_cache` scope this is exactly ``compute()`` —
    the hot paths stay unconditionally correct with caching disabled.
    """
    cache = _ACTIVE.get()
    if cache is None:
        return compute()
    return cache.get_or_compute(namespace, key, compute)
