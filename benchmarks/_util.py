"""Helpers shared by the benchmark harness.

Each benchmark regenerates one paper table/figure, prints it, and persists
the rendered text under ``results/`` so the regenerated rows survive the
pytest run (stdout is captured by default).
"""

from __future__ import annotations

from pathlib import Path

from repro.orchestration.checkpoint import atomic_write_text

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def save_result(name: str, text: str) -> None:
    """Print a rendered table and persist it to ``results/<name>.txt``.

    The write is atomic (temp file in the same directory + ``os.replace``)
    so an interrupted benchmark run can never leave a truncated or
    corrupted table where a previously regenerated one stood.
    """
    atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
    print(f"\n{text}\n[saved to results/{name}.txt]")
