"""Crash-safe persistent result store: the sweep cache's on-disk tier.

:class:`ResultStore` persists the memo-cache namespaces (``busy-moments``,
``ph-fit``, ``analysis-solution`` and the service's ``service-answer``
replay entries) across processes, so a repeated ``figure`` / ``bench`` /
``check`` / ``serve`` run recomputes nothing.  A store that survives
processes is above all a *durability* problem, and every design choice
here is about failing safe:

* **Content-addressed layout.**  ``<root>/<namespace>/<dd>/<digest>.entry``
  where ``digest`` is the sha256 of the encoded cache key plus the solver
  schema version (:mod:`repro.orchestration.spec`) — a solver bump
  orphans old entries instead of replaying stale numerics.
* **Self-describing entries.**  Every file is one JSON header line
  (store schema, codec version, namespace, key digest, payload sha256 and
  length, writer pid, write/access timestamps) followed by the
  :mod:`~repro.perf.codec` payload.  Reads verify *everything* before
  deserializing; deserialized QBD solutions additionally re-pass their
  invariant contracts (:mod:`repro.contracts`) before being served.
* **Typed corruption, quarantined.**  Any mismatch raises
  :class:`~repro.robustness.StoreCorruptionError` after moving the entry
  to ``<root>/corrupt/`` — the cache layer catches it and transparently
  recomputes-and-rewrites, so bit rot costs time, never correctness.
* **Lock-free concurrent access.**  Writers go through
  ``atomic_write_bytes`` (tmp file + ``os.replace``), first committed
  writer wins, readers never block; only :meth:`gc` takes an advisory
  lockfile so two collectors do not double-delete.
* **Observable.**  ``store.hits`` / ``store.misses`` / ``store.corrupt``
  / ``store.writes`` / ``store.evicted`` telemetry counters fire at event
  time, so worker-subprocess deltas merge into run manifests like every
  other counter.

Enable via ``REPRO_STORE=1`` (default root ``results/store``) or
``REPRO_STORE=/path/to/store``; the env var crosses worker process
boundaries, so orchestration workers join the same store automatically.
``python -m repro store {stats,fsck,gc}`` administers it.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from hashlib import sha256
from pathlib import Path
from threading import Lock
from typing import Any, Callable, Iterator, Optional

from ..robustness import (
    SerializationError,
    StoreCorruptionError,
    atomic_write_bytes,
)
from ..telemetry import counter_inc
from .codec import CODEC_VERSION, decode_value, encode_value, key_digest

__all__ = [
    "DEFAULT_STORE_ROOT",
    "PERSISTED_NAMESPACES",
    "ResultStore",
    "STORE_ENV_VAR",
    "STORE_SCHEMA_VERSION",
    "store_from_env",
]

#: Bump on any incompatible change to the entry layout below.
STORE_SCHEMA_VERSION = 1

MAGIC = "repro-store"

STORE_ENV_VAR = "REPRO_STORE"

DEFAULT_STORE_ROOT = os.path.join("results", "store")

#: Cache namespaces the store persists.  A namespace outside this set
#: stays memory-only (nothing stops callers inventing scratch namespaces;
#: they just will not survive the process).
PERSISTED_NAMESPACES = frozenset(
    {
        "busy-moments",
        "ph-fit",
        "analysis-solution",
        "service-answer",
    }
)

#: Namespaces whose deserialized values re-pass their invariant contracts
#: before being trusted (a checksum proves the bytes are what was
#: written, not that what was written is still a valid solution under
#: today's contracts).
_CONTRACT_CHECKED = ("analysis-solution",)

#: Minimum seconds between atime bumps of one entry: the bump is a full
#: atomic rewrite (the header is not updatable in place without losing
#: crash safety), so repeated reads within a run must not pay it twice.
ATIME_RESOLUTION = 600.0

#: A ``.tmp`` file this old is litter from a crashed writer, not a write
#: in flight; ``gc`` removes it.
STALE_TMP_AGE = 3600.0

#: A gc lockfile this old belongs to a dead collector and is broken.
STALE_LOCK_AGE = 600.0

_ENTRY_SUFFIX = ".entry"

#: Sentinel distinguishing "miss" from "stored None".
_MISS = object()

#: Test hook: called (if set) immediately before the commit rename of an
#: entry write, mirroring ``atomic_write._fsync`` — crash tests SIGKILL
#: the process here to prove a torn write can never surface as an entry.
_before_commit: "Optional[Callable[[], None]]" = None


def _trust_record(value: Any) -> "Optional[dict]":
    """Numerical-trust summary of a value about to be persisted, or None.

    Looks for the :class:`~repro.robustness.SolverDiagnostics` a value
    carries on its ``diagnostics`` attribute (``analysis-solution`` holds
    :class:`~repro.markov.qbd.QbdSolution`) and lifts its verdict into
    the entry header, so ``fsck --trust`` can audit a store without
    decoding every payload.
    """
    from ..robustness import SolverDiagnostics

    diag = getattr(value, "diagnostics", None)
    if not isinstance(diag, SolverDiagnostics) or diag.trust is None:
        return None
    return {
        "trust": diag.trust,
        "error_bound": diag.error_bound,
        "escalated": diag.escalated,
    }


def _result_schema_version() -> int:
    # Lazy: importing repro.orchestration at module scope would cycle
    # back into repro.perf through the runner.
    from ..orchestration.spec import SCHEMA_VERSION

    return SCHEMA_VERSION


def store_from_env(env: "Optional[dict]" = None) -> "Optional[ResultStore]":
    """Build the store the environment asks for, or None when disabled.

    ``REPRO_STORE`` unset/empty/``0``/``false``/``off`` disables;
    ``1``/``true``/``on`` enables at :data:`DEFAULT_STORE_ROOT`; any
    other value is used as the store root path.
    """
    raw = (env if env is not None else os.environ).get(STORE_ENV_VAR, "")
    raw = raw.strip()
    if raw.lower() in ("", "0", "false", "off", "no"):
        return None
    if raw.lower() in ("1", "true", "on", "yes"):
        return ResultStore(DEFAULT_STORE_ROOT)
    return ResultStore(raw)


class ResultStore:
    """On-disk, content-addressed, integrity-verified result store.

    Thread-safe (the query service shares one across its pool) and safe
    across processes: every commit is a tmp-write + ``os.replace``, every
    read is verify-then-trust, and a lost race simply means both writers
    produced the same content-addressed entry.
    """

    def __init__(self, root: "Path | str"):
        self.root = Path(root)
        self._lock = Lock()
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self.corrupt: Counter = Counter()
        self.writes: Counter = Counter()
        self.evicted = 0
        self._schema_extra = f"result-schema={_result_schema_version()}"

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def persists(self, namespace: str) -> bool:
        """True when ``namespace`` is one the store persists."""
        return namespace in PERSISTED_NAMESPACES

    def digest(self, namespace: str, key: Any) -> str:
        """Content digest of a cache key (see :func:`~.codec.key_digest`)."""
        return key_digest(namespace, key, extra=self._schema_extra)

    def entry_path(self, namespace: str, digest: str) -> Path:
        """Entry file for a digest (two-level fan-out keeps dirs small)."""
        return self.root / namespace / digest[:2] / f"{digest}{_ENTRY_SUFFIX}"

    @property
    def corrupt_dir(self) -> Path:
        """Quarantine directory for entries that failed verification."""
        return self.root / "corrupt"

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def get(self, namespace: str, key: Any) -> Any:
        """Verified value for ``(namespace, key)``, or the miss sentinel.

        Returns ``(True, value)`` on a hit, ``(False, None)`` on a clean
        miss.  A corrupt entry is quarantined, counted, and raised as
        :class:`~repro.robustness.StoreCorruptionError` — the cache layer
        catches that and recomputes.
        """
        digest = self.digest(namespace, key)
        path = self.entry_path(namespace, digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self.misses[namespace] += 1
            counter_inc("store.misses")
            return False, None
        except OSError as exc:
            # Unreadable is indistinguishable from corrupt: quarantine
            # is impossible (we may not even stat it), so just miss.
            with self._lock:
                self.misses[namespace] += 1
            counter_inc("store.misses")
            counter_inc("store.read_errors")
            _ = exc
            return False, None
        try:
            header, value = self._verify_entry(data, namespace, digest, path)
        except StoreCorruptionError:
            with self._lock:
                self.corrupt[namespace] += 1
            counter_inc("store.corrupt")
            self.quarantine(path)
            raise
        with self._lock:
            self.hits[namespace] += 1
        counter_inc("store.hits")
        self._touch(path, header, data)
        return True, value

    def _verify_entry(
        self, data: bytes, namespace: str, digest: str, path: Path
    ) -> "tuple[dict, Any]":
        """Checksum + schema + contract verification; returns (header, value)."""

        def corrupt(reason: str, **context: Any) -> StoreCorruptionError:
            return StoreCorruptionError(
                f"store entry failed verification: {reason}",
                path=str(path),
                reason=reason,
                **context,
            )

        newline = data.find(b"\n")
        if newline < 0:
            raise corrupt("no header line")
        try:
            header = json.loads(data[:newline].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise corrupt("header is not valid JSON")
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            raise corrupt("bad magic")
        if header.get("schema") != STORE_SCHEMA_VERSION:
            raise corrupt(
                "schema version mismatch",
                expected=STORE_SCHEMA_VERSION,
                observed=header.get("schema"),
            )
        if header.get("codec") != CODEC_VERSION:
            raise corrupt(
                "codec version mismatch",
                expected=CODEC_VERSION,
                observed=header.get("codec"),
            )
        if header.get("namespace") != namespace:
            raise corrupt(
                "namespace mismatch",
                expected=namespace,
                observed=header.get("namespace"),
            )
        if header.get("key_digest") != digest:
            raise corrupt(
                "key digest mismatch",
                expected=digest,
                observed=header.get("key_digest"),
            )
        payload = data[newline + 1 :]
        if len(payload) != header.get("payload_bytes"):
            raise corrupt(
                "payload truncated or padded",
                expected=header.get("payload_bytes"),
                observed=len(payload),
            )
        observed_sha = sha256(payload).hexdigest()
        if observed_sha != header.get("payload_sha256"):
            raise corrupt(
                "payload checksum mismatch",
                expected=header.get("payload_sha256"),
                observed=observed_sha,
            )
        try:
            value = decode_value(payload)
        except SerializationError as exc:
            # The checksum passed but the payload does not decode: the
            # writer and reader disagree about the format (schema drift
            # within one version tag).  Treat exactly like bit rot.
            raise corrupt(f"payload undecodable: {exc.message}") from exc
        self._verify_value(namespace, value, path)
        return header, value

    def _verify_value(self, namespace: str, value: Any, path: Path) -> None:
        """Re-pass deserialized QBD solutions through their contracts."""
        if namespace not in _CONTRACT_CHECKED:
            return
        from ..contracts import contracts_enabled, evaluate

        if not contracts_enabled():
            return
        # analysis-solution holds QbdSolution objects directly.
        for result in evaluate("solution", value):
            if not result.passed:
                raise StoreCorruptionError(
                    f"deserialized solution failed contract "
                    f"{result.name!r}: {result.detail or ''}",
                    path=str(path),
                    reason="contract-violation",
                    contract=result.name,
                    observed=result.observed,
                    expected=result.expected,
                )

    def _touch(self, path: Path, header: dict, data: bytes) -> None:
        """Best-effort atime bump (LRU input for :meth:`gc`), throttled."""
        now = time.time()
        if now - float(header.get("atime", 0.0)) < ATIME_RESOLUTION:
            return
        try:
            newline = data.find(b"\n")
            refreshed = dict(header, atime=now)
            line = json.dumps(refreshed, separators=(",", ":")).encode("utf-8")
            atomic_write_bytes(path, line + data[newline:])
        except Exception:
            # Losing an atime bump only skews LRU ordering; never let it
            # fail a read.
            pass

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def put(self, namespace: str, key: Any, value: Any) -> bool:
        """Persist a value; returns True when a new entry was committed.

        First committed writer wins: an existing entry is left untouched
        (it holds the same content — keys are content-addressed and the
        computation is deterministic).  Raises
        :class:`~repro.robustness.SerializationError` for values outside
        the codec registry; the cache layer treats that as "not
        persistable" and moves on.
        """
        if not self.persists(namespace):
            return False
        digest = self.digest(namespace, key)
        path = self.entry_path(namespace, digest)
        if path.exists():
            return False
        payload = encode_value(value)
        now = time.time()
        header = {
            "magic": MAGIC,
            "schema": STORE_SCHEMA_VERSION,
            "codec": CODEC_VERSION,
            "result_schema": _result_schema_version(),
            "namespace": namespace,
            "key_digest": digest,
            "payload_sha256": sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "writer_pid": os.getpid(),
            "written_at": now,
            "atime": now,
        }
        trust = _trust_record(value)
        if trust is not None:
            header["trust"] = trust
        line = json.dumps(header, separators=(",", ":")).encode("utf-8")
        if _before_commit is not None:
            _before_commit()
        atomic_write_bytes(path, line + b"\n" + payload)
        with self._lock:
            self.writes[namespace] += 1
        counter_inc("store.writes")
        return True

    # ------------------------------------------------------------------ #
    # Quarantine
    # ------------------------------------------------------------------ #

    def quarantine(self, path: Path) -> "Optional[Path]":
        """Move a corrupt entry to ``corrupt/`` (never delete evidence).

        Returns the quarantine path, or None when the entry vanished
        (another process may have quarantined it first — fine).
        """
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            target = self.corrupt_dir / path.name
            counter = 0
            while target.exists():
                counter += 1
                target = self.corrupt_dir / f"{path.name}.{counter}"
            os.replace(path, target)
            return target
        except OSError:
            return None

    # ------------------------------------------------------------------ #
    # Scanning, fsck, gc, stats
    # ------------------------------------------------------------------ #

    def _iter_entries(self) -> "Iterator[Path]":
        if not self.root.is_dir():
            return
        for namespace_dir in sorted(self.root.iterdir()):
            if not namespace_dir.is_dir() or namespace_dir.name == "corrupt":
                continue
            yield from sorted(namespace_dir.glob(f"*/*{_ENTRY_SUFFIX}"))

    def _iter_tmp_files(self) -> "Iterator[Path]":
        if not self.root.is_dir():
            return
        yield from sorted(self.root.glob("**/.*.tmp"))

    def fsck(self, trust_budget: "Optional[float]" = None) -> dict:
        """Verify every entry; quarantine failures; return a report.

        The report's ``corrupt`` list names each quarantined entry with
        the reason its verification failed; ``tmp_files`` lists crashed-
        writer litter (harmless — committed entries never pass through a
        visible partial state — but worth knowing about).

        With ``trust_budget``, entries whose header carries a trust
        record with an error bound above the budget (or no finite bound
        at all) are listed under ``trust_flagged`` — they are *intact*,
        so they are reported, not quarantined: the numbers are exactly
        what the solver produced, the solver just could not vouch for
        all their digits.
        """
        checked = ok = 0
        corrupt: "list[dict]" = []
        trust_flagged: "list[dict]" = []
        for path in self._iter_entries():
            checked += 1
            namespace = path.parent.parent.name
            digest = path.name[: -len(_ENTRY_SUFFIX)]
            try:
                data = path.read_bytes()
                self._verify_entry(data, namespace, digest, path)
                if trust_budget is not None:
                    flagged = self._trust_over_budget(
                        data, namespace, path, trust_budget
                    )
                    if flagged is not None:
                        trust_flagged.append(flagged)
            except StoreCorruptionError as exc:
                counter_inc("store.corrupt")
                with self._lock:
                    self.corrupt[namespace] += 1
                quarantined = self.quarantine(path)
                corrupt.append(
                    {
                        "path": str(path),
                        "namespace": namespace,
                        "reason": exc.context.get("reason", exc.message),
                        "quarantined_to": str(quarantined) if quarantined else None,
                    }
                )
            except OSError as exc:
                corrupt.append(
                    {
                        "path": str(path),
                        "namespace": namespace,
                        "reason": f"unreadable: {exc}",
                        "quarantined_to": None,
                    }
                )
            else:
                ok += 1
        report = {
            "root": str(self.root),
            "checked": checked,
            "ok": ok,
            "corrupt": corrupt,
            "tmp_files": [str(p) for p in self._iter_tmp_files()],
            "quarantined_total": sum(
                1 for _ in self.corrupt_dir.glob("*")
            ) if self.corrupt_dir.is_dir() else 0,
        }
        if trust_budget is not None:
            report["trust_budget"] = float(trust_budget)
            report["trust_flagged"] = trust_flagged
        return report

    @staticmethod
    def _trust_over_budget(
        data: bytes, namespace: str, path: Path, budget: float
    ) -> "Optional[dict]":
        """One ``trust_flagged`` report row, or None when within budget.

        Entries without a trust record (closed-form values, pre-trust
        writers) are not flagged — absence of a record means no solve is
        behind the value, not a failed one.
        """
        header = json.loads(data[: data.find(b"\n")].decode("utf-8"))
        trust = header.get("trust")
        if not isinstance(trust, dict):
            return None
        bound = trust.get("error_bound")
        finite = isinstance(bound, (int, float)) and bound == bound and bound != float("inf")
        if finite and float(bound) <= budget:
            return None
        return {
            "path": str(path),
            "namespace": namespace,
            "trust": trust.get("trust"),
            "error_bound": bound,
            "escalated": bool(trust.get("escalated", False)),
        }

    def gc(
        self,
        max_bytes: "Optional[int]" = None,
        max_age: "Optional[float]" = None,
    ) -> dict:
        """Size/age-bounded eviction, LRU by the atime in each header.

        ``max_age`` is in seconds.  Also sweeps stale ``.tmp`` litter from
        crashed writers.  Guarded by an advisory lockfile (two concurrent
        collectors would double-count and double-delete); a lockfile older
        than :data:`STALE_LOCK_AGE` is broken, a fresh one makes this call
        a no-op reporting ``locked``.
        """
        lock_path = self.root / ".gc.lock"
        if not self._acquire_gc_lock(lock_path):
            return {"root": str(self.root), "locked": True, "evicted": 0}
        try:
            now = time.time()
            entries: "list[tuple[float, int, Path]]" = []
            evicted = 0
            freed = 0
            for path in self._iter_entries():
                atime, size = self._entry_atime_size(path)
                if max_age is not None and now - atime > max_age:
                    freed += self._remove(path)
                    evicted += 1
                    continue
                entries.append((atime, size, path))
            if max_bytes is not None:
                total = sum(size for _, size, _ in entries)
                entries.sort()  # oldest atime first
                index = 0
                while total > max_bytes and index < len(entries):
                    _, size, path = entries[index]
                    freed += self._remove(path)
                    total -= size
                    evicted += 1
                    index += 1
            tmp_removed = 0
            for tmp in self._iter_tmp_files():
                try:
                    if now - tmp.stat().st_mtime > STALE_TMP_AGE:
                        tmp.unlink()
                        tmp_removed += 1
                except OSError:
                    pass
            if evicted:
                counter_inc("store.evicted", evicted)
                with self._lock:
                    self.evicted += evicted
            return {
                "root": str(self.root),
                "locked": False,
                "evicted": evicted,
                "freed_bytes": freed,
                "stale_tmp_removed": tmp_removed,
            }
        finally:
            try:
                lock_path.unlink()
            except OSError:
                pass

    def _acquire_gc_lock(self, lock_path: Path) -> bool:
        self.root.mkdir(parents=True, exist_ok=True)
        for _ in range(2):
            try:
                fd = os.open(
                    str(lock_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                with os.fdopen(fd, "w") as handle:
                    handle.write(str(os.getpid()))
                return True
            except FileExistsError:
                try:
                    if time.time() - lock_path.stat().st_mtime > STALE_LOCK_AGE:
                        lock_path.unlink()  # dead collector; break its lock
                        continue
                except OSError:
                    continue
                return False
            except OSError:
                return False
        return False

    def _entry_atime_size(self, path: Path) -> "tuple[float, int]":
        """(atime, size) from the header, degrading to file mtime/size."""
        try:
            size = path.stat().st_size
        except OSError:
            return 0.0, 0
        try:
            with open(path, "rb") as handle:
                header = json.loads(handle.readline().decode("utf-8"))
            return float(header.get("atime", 0.0)), size
        except Exception:
            try:
                return path.stat().st_mtime, size
            except OSError:
                return 0.0, size

    def _remove(self, path: Path) -> int:
        try:
            size = path.stat().st_size
            path.unlink()
            return size
        except OSError:
            return 0

    def session_stats(self) -> dict:
        """This process's hit/miss/corrupt/write counters (JSON-ready)."""
        with self._lock:
            return {
                "root": str(self.root),
                "hits": sum(self.hits.values()),
                "misses": sum(self.misses.values()),
                "corrupt": sum(self.corrupt.values()),
                "writes": sum(self.writes.values()),
                "evicted": self.evicted,
                "by_namespace": {
                    ns: {
                        "hits": self.hits[ns],
                        "misses": self.misses[ns],
                        "corrupt": self.corrupt[ns],
                        "writes": self.writes[ns],
                    }
                    for ns in sorted(
                        set(self.hits)
                        | set(self.misses)
                        | set(self.corrupt)
                        | set(self.writes)
                    )
                },
            }

    def disk_stats(self) -> dict:
        """What is on disk right now: entry/byte counts per namespace."""
        by_namespace: "dict[str, dict]" = {}
        total_entries = total_bytes = 0
        for path in self._iter_entries():
            namespace = path.parent.parent.name
            try:
                size = path.stat().st_size
            except OSError:
                continue
            row = by_namespace.setdefault(namespace, {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += size
            total_entries += 1
            total_bytes += size
        quarantined = (
            sum(1 for _ in self.corrupt_dir.glob("*"))
            if self.corrupt_dir.is_dir()
            else 0
        )
        return {
            "root": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "quarantined": quarantined,
            "tmp_files": sum(1 for _ in self._iter_tmp_files()),
            "by_namespace": by_namespace,
        }
