"""Per-run manifest: what happened to every point of a sweep.

The manifest is the run's flight recorder, written (atomically) next to
the results as ``results/<name>.manifest.json``: per-point statuses,
whether the point was resumed from the checkpoint journal, wall times,
solver-ladder outcomes distilled from PR 1's
:class:`~repro.robustness.SolverDiagnostics`, seeds where the point spec
carries one, the package version, and whether the run was interrupted
(signal name or injected abort).  Unlike the journal it is not used for
resuming — it exists so a finished (or killed) run can be audited after
the fact.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING

from .. import __version__
from ..robustness.atomic_write import atomic_write_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import PointOutcome

__all__ = ["RunManifest", "STATUSES", "journal_diagnostics"]

#: Every status a sweep point can end in.
STATUSES = ("ok", "degraded", "suspect", "failed", "timeout")


def _diagnostics_summary(diagnostics: "dict | None") -> "dict | None":
    """Distill per-policy SolverDiagnostics dicts into ladder outcomes.

    Idempotent: a summary summarizes to itself, so a point resumed from a
    trimmed journal line (:func:`journal_diagnostics`) yields the same
    manifest ``ladder`` row as the fresh point did.
    """
    if not isinstance(diagnostics, dict):
        return None
    summary = {}
    for name, diag in diagnostics.items():
        if isinstance(diag, dict) and "method" in diag:
            summary[name] = {
                "method": diag.get("method"),
                "degraded": bool(diag.get("degraded", False)),
                "rungs_tried": (
                    diag["rungs_tried"]
                    if "rungs_tried" in diag
                    else len(diag.get("rungs", []) or [])
                ),
                "iterations": diag.get("iterations"),
                "trust": diag.get("trust"),
                "error_bound": diag.get("error_bound"),
            }
    return summary or None


def journal_diagnostics(status: str, diagnostics: "dict | None") -> "dict | None":
    """The diagnostics a point's journal line keeps.

    An ``ok`` point whose every policy is ``trusted`` keeps only its
    ladder summary; any other point keeps the full diagnostics, so a
    questionable one can still be audited from the journal.
    """
    if status != "ok" or not diagnostics:
        return diagnostics
    summary = _diagnostics_summary(diagnostics)
    if (
        summary is None
        or len(summary) != len(diagnostics)
        or any(row["trust"] != "trusted" for row in summary.values())
    ):
        return diagnostics
    return summary


class RunManifest:
    """Accumulates point records for one run and writes them atomically."""

    def __init__(
        self,
        name: str,
        path: "Path | str",
        workers: int,
        timeout: "float | None",
        resume: bool,
    ):
        self.name = name
        self.path = Path(path)
        self.workers = workers
        self.timeout = timeout
        self.resume = resume
        self.interrupted: "str | None" = None
        self.points: list[dict] = []
        #: Merged telemetry snapshot (driver + all worker registries),
        #: attached by the runner just before the final write.
        self.metrics: "dict | None" = None
        self._started_unix = time.time()
        self._started_mono = time.monotonic()

    def add_point(self, outcome: "PointOutcome") -> None:
        """Record one point outcome (fresh or resumed from the journal)."""
        kwargs = outcome.point.kwargs
        entry = {
            "label": outcome.point.label,
            "key": outcome.point.key,
            "task": outcome.point.task,
            "status": outcome.status,
            "resumed": outcome.resumed,
            "wall_time": outcome.wall_time,
        }
        if outcome.error is not None:
            entry["error"] = outcome.error
        ladder = _diagnostics_summary(outcome.diagnostics)
        if ladder is not None:
            entry["ladder"] = ladder
        seed = kwargs.get("seed", kwargs.get("seed_root"))
        if seed is not None:
            entry["seed"] = seed
        self.points.append(entry)

    def as_dict(self) -> dict:
        """The full manifest document."""
        counts = {status: 0 for status in STATUSES}
        resumed = 0
        for point in self.points:
            counts[point["status"]] = counts.get(point["status"], 0) + 1
            resumed += point["resumed"]
        document = {
            "name": self.name,
            "version": __version__,
            "started_unix": self._started_unix,
            "elapsed_seconds": time.monotonic() - self._started_mono,
            "workers": self.workers,
            "timeout": self.timeout,
            "resume": self.resume,
            "interrupted": self.interrupted,
            "counts": {**counts, "resumed": resumed, "total": len(self.points)},
            "points": self.points,
        }
        if self.metrics is not None:
            document["metrics"] = self.metrics
        return document

    def write(self) -> None:
        """Persist the manifest atomically (safe to call repeatedly).

        Written compact (``indent=None``), which lets ``json`` use its C
        encoder: the manifest is rewritten after every ``run()`` call.
        """
        atomic_write_json(self.path, self.as_dict(), indent=None)
