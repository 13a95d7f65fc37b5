"""Crash-safe checkpoint journal for sweep runs.

The journal is a JSONL file: one record per completed sweep point, keyed
by the content hash of the point spec (:func:`~repro.orchestration.spec
.point_key`).  :meth:`CheckpointJournal.record` appends one line and
closes the file, so each record costs one line of I/O, not a rewrite of
the whole journal.  :meth:`CheckpointJournal.sync` fsyncs the file; the
runner calls it once at the end of every ``run()`` call (one figure
row), also when the run is interrupted, aborted or shed by its deadline.

What survives what:

* a crash, SIGKILL or ``os._exit`` of the process loses no recorded
  point: the appended bytes are already in the kernel's page cache;
* a kernel crash or power loss can drop the not-yet-synced lines of the
  row in progress (or tear the last of them); a ``--resume`` recomputes
  those points.

The worst any of these can do to the file is tear the line being
appended.

Loading tolerates torn or corrupt lines (a mid-write crash tearing the
final line, a disk-full truncation, bytes that are not UTF-8): bad lines
are skipped **loudly** — a :class:`~repro.robustness.CorruptJournalWarning`
names the file and line numbers, and the ``checkpoint.torn_lines``
telemetry counter records how many were dropped — and good records are
kept.  A journal loaded with a bad line or a missing final newline, or
one whose append or fsync failed, is compacted by the next
:meth:`~CheckpointJournal.record`: it rewrites a clean file through the
atomic tmp-file + ``os.replace`` path (:meth:`~CheckpointJournal.flush`)
instead of appending, so a new record is never glued onto a torn tail.
A ``--resume`` therefore recomputes the torn points instead of aborting
the run.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Iterator

# Re-exported for backward compatibility: the atomic writer grew more
# users (manifests, oracle reports, telemetry traces) and
# now lives in repro.robustness.atomic_write.
from ..robustness.atomic_write import (
    atomic_write_jsonl,
    atomic_write_text,
    fsync_directory,
)
from ..robustness.errors import CorruptJournalWarning
from ..telemetry import counter_inc

__all__ = ["CheckpointJournal", "atomic_write_text"]


class CheckpointJournal:
    """Journal of completed sweep points, appended after every record.

    Records are plain dicts with at least a ``"key"`` field; the last
    record for a key wins (a retried point appends a line that overrides
    its old outcome on load).
    """

    def __init__(self, path: "Path | str"):
        self.path = Path(path)
        self._records: dict[str, dict] = {}
        #: Torn/corrupt lines skipped while loading (0 for a clean journal).
        self.torn_lines = 0
        # True while the file on disk must not be appended to (torn or
        # corrupt line, missing final newline, a failed append or fsync):
        # the next record rewrites it whole instead.
        self._compact = False
        # True while appended lines await the fsync of :meth:`sync`.
        self._unsynced = False
        self._load()

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return
        torn: "list[int]" = []
        for lineno, line in enumerate(data.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                # Torn/corrupt line (classically: a mid-write crash
                # truncating the final line): skip it, keep the rest.
                torn.append(lineno)
                continue
            if isinstance(record, dict) and "key" in record:
                self._records[record["key"]] = record
        self._compact = bool(torn) or (bool(data) and not data.endswith(b"\n"))
        if torn:
            self.torn_lines = len(torn)
            counter_inc("checkpoint.torn_lines", len(torn))
            warnings.warn(
                CorruptJournalWarning(
                    f"checkpoint journal {self.path} had {len(torn)} torn/corrupt "
                    f"line(s) (line {', '.join(map(str, torn))}); skipped — the "
                    f"affected point(s) will be recomputed on resume"
                ),
                stacklevel=3,
            )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator[dict]:
        return iter(self._records.values())

    def get(self, key: str) -> "dict | None":
        """The journaled record for a point key, or None."""
        return self._records.get(key)

    def record(self, record: dict) -> None:
        """Add (or overwrite) one record and append it to the file.

        The line is written and the file closed before this returns, so
        the record survives a crash of this process; it survives a kernel
        crash or power loss once :meth:`sync` has run.  The file is opened
        per call, so no descriptor leaks into forked workers; creating it
        also creates its directory and fsyncs the directory entry.  A
        file that needs compaction is rewritten by :meth:`flush` instead.
        """
        if "key" not in record:
            raise ValueError("journal records need a 'key' field")
        self._records[record["key"]] = record
        if self._compact:
            self.flush()
            return
        line = json.dumps(record, sort_keys=True, default=repr) + "\n"
        created = not self.path.exists()
        if created:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(self.path, "ab") as handle:
                handle.write(line.encode("utf-8"))
        except BaseException:
            # A partial line may have reached the file: never append
            # after it.
            self._compact = True
            raise
        self._unsynced = True
        if created:
            fsync_directory(self.path.parent)

    def sync(self) -> None:
        """Fsync the lines appended since the last sync (none: a no-op).

        A failed fsync leaves the file's tail in doubt, so the next
        :meth:`record` rewrites the file instead of appending to it.
        """
        if not self._unsynced or self._compact:
            return
        try:
            with open(self.path, "ab") as handle:
                os.fsync(handle.fileno())
        except BaseException:
            self._compact = True
            raise
        self._unsynced = False

    def flush(self) -> None:
        """Rewrite the journal file atomically from the in-memory records.

        This is the compaction path: one line per key, torn lines gone.
        """
        atomic_write_jsonl(self.path, self._records.values())
        self._compact = False
        self._unsynced = False

    def reset(self) -> None:
        """Drop all records and delete the journal file (fresh run)."""
        self._records.clear()
        self._compact = False
        self._unsynced = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
