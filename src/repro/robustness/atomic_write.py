"""Atomic file writers shared by every ``results/`` producer.

Checkpoint journals, run manifests, oracle reports, and telemetry
traces all share the same durability requirement: the file on
disk must always be a complete, parseable artifact — a crash or SIGKILL
mid-write loses at most the write in flight, never the file.  The recipe
is the classic tmp-file-in-same-directory + fsync + ``os.replace``; this
module is its single home (it previously lived in
``orchestration.checkpoint`` and was imported from there by every other
writer).

Intentionally stdlib-only: importing this module must not pull numpy, so
import-light packages (``repro.perf``, ``repro.telemetry``) can use it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_write_jsonl",
    "fsync_directory",
]

#: Fsync used on the parent directory after the rename.  Module-level and
#: injectable so tests can observe/deny it without touching a real disk;
#: production code never reassigns it.
_fsync = os.fsync


def fsync_directory(directory: "Path | str") -> None:
    """Fsync a directory so a just-renamed entry survives power loss.

    ``os.replace`` makes the rename atomic with respect to *crashes of
    this process*, but the new directory entry itself lives in the parent
    directory's data — until that is flushed, a power cut can roll the
    rename back (leaving the *old* file, or on first write, no file).
    Checkpoints, manifests and reports are exactly the artifacts a
    machine reboot must not lose, so the writers below call this after
    every replace.

    Platforms/filesystems that refuse ``open(O_RDONLY)`` + ``fsync`` on
    directories (some network mounts, Windows) degrade gracefully: the
    rename still happened, only the power-loss guarantee is weakened.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        _fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: "Path | str", data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    The temp file lives in the target's directory so the final rename
    never crosses a filesystem boundary; it is fsynced before the replace
    so a crash cannot leave a shorter-than-written file behind, and the
    parent directory is fsynced after it so the rename itself survives
    power loss (see :func:`fsync_directory`).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        try:
            handle = os.fdopen(fd, "wb")
        except BaseException:
            # ``os.fdopen`` failing leaves the raw descriptor orphaned:
            # the ``with`` below never runs, so close it here or it leaks
            # for the life of the process.
            os.close(fd)
            raise
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: "Path | str", text: str) -> None:
    """Write ``text`` to ``path`` atomically, UTF-8 encoded.

    See :func:`atomic_write_bytes` for the durability recipe.
    """
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(
    path: "Path | str",
    payload: Any,
    *,
    indent: "int | None" = 2,
    sort_keys: bool = False,
) -> None:
    """Serialize ``payload`` as JSON and write it atomically.

    Non-JSON values (numpy scalars that survived ``as_dict``, exceptions
    in notes, ...) degrade to ``repr`` rather than failing the write —
    an artifact with a stringified field beats no artifact at all.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys, default=repr)
    atomic_write_text(path, text + "\n")


def atomic_write_jsonl(path: "Path | str", records: Iterable[Any]) -> None:
    """Write an iterable of records as one-JSON-object-per-line, atomically."""
    lines = [json.dumps(record, sort_keys=True, default=repr) for record in records]
    atomic_write_text(path, "".join(line + "\n" for line in lines))
