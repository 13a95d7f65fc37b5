"""Crash-safe checkpoint journal for sweep runs.

The journal is a JSONL file: one record per completed sweep point, keyed
by the content hash of the point spec (:func:`~repro.orchestration.spec
.point_key`).  :meth:`CheckpointJournal.record` appends one line and
fsyncs the file before returning, so a point is durable as soon as it is
recorded and each record costs one line of I/O, not a rewrite of the
whole journal.  A crash or SIGKILL at any instant loses at most the
points still in flight; the worst it can do to the file is tear the line
being appended.

Loading tolerates torn or corrupt lines (a mid-write crash tearing the
final line, a disk-full truncation, bytes that are not UTF-8): bad lines
are skipped **loudly** — a :class:`~repro.robustness.CorruptJournalWarning`
names the file and line numbers, and the ``checkpoint.torn_lines``
telemetry counter records how many were dropped — and good records are
kept.  A journal loaded with a bad line or a missing final newline is
compacted by the first :meth:`~CheckpointJournal.record`: it rewrites a
clean file through the atomic tmp-file + ``os.replace`` path
(:meth:`~CheckpointJournal.flush`) instead of appending, so a new record
is never glued onto a torn tail.  A ``--resume`` therefore recomputes the
torn points instead of aborting the run.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Iterator

# Re-exported for backward compatibility: the atomic writer grew more
# users (manifests, bench records, oracle reports, telemetry traces) and
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
    """Journal of completed sweep points, persisted after every record.

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
        # corrupt line, missing final newline, a failed append): the next
        # record rewrites it whole instead.
        self._compact = False
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
        """Add (or overwrite) one record; it is on disk when this returns.

        Appends one line and fsyncs the file.  The file is opened per
        call, so no descriptor leaks into forked workers; creating it
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
                handle.flush()
                os.fsync(handle.fileno())
        except BaseException:
            # A partial line may have reached the file: never append
            # after it.
            self._compact = True
            raise
        if created:
            fsync_directory(self.path.parent)

    def flush(self) -> None:
        """Rewrite the journal file atomically from the in-memory records.

        This is the compaction path: one line per key, torn lines gone.
        """
        atomic_write_jsonl(self.path, self._records.values())
        self._compact = False

    def reset(self) -> None:
        """Drop all records and delete the journal file (fresh run)."""
        self._records.clear()
        self._compact = False
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
