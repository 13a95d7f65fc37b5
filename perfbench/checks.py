"""Correctness checks on the program's outputs.

Figure tables are compared cell by cell against references captured at
the commit that introduced the benchmark (``reference/``).  A numeric
cell may differ from its reference by one unit in its last printed digit
(rounding); every other cell (``unstable``, ``nan``, titles, blanks) must
be identical and in the same column.
"""

from __future__ import annotations

import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_TOKEN = re.compile(r"\S+")
_NUMBER = re.compile(r"-?\d+\.(\d+)")


def reference(name: str) -> str:
    return (REFERENCE_DIR / f"{name}.txt").read_text()


def _cells(line: str) -> "list[tuple[int, str]]":
    return [(m.start(), m.group()) for m in _TOKEN.finditer(line)]


def _same_cell(ref: str, obs: str) -> bool:
    if ref == obs:
        return True
    ref_num, obs_num = _NUMBER.fullmatch(ref), _NUMBER.fullmatch(obs)
    if ref_num is None or obs_num is None:
        return False
    digits = max(len(ref_num.group(1)), len(obs_num.group(1)))
    return abs(float(ref) - float(obs)) <= 10.0**-digits * (1.0 + 1e-9)


def table_mismatches(reference_text: str, observed_text: str) -> "list[str]":
    """Lines of ``observed_text`` that differ from the reference, by line number.

    An empty list means every cell matches; a line count difference is
    reported once per missing or extra line.
    """
    ref_lines = reference_text.rstrip("\n").split("\n")
    obs_lines = observed_text.rstrip("\n").split("\n")
    problems = []
    for number, (ref, obs) in enumerate(zip(ref_lines, obs_lines), start=1):
        ref_cells, obs_cells = _cells(ref), _cells(obs)
        if len(ref_cells) != len(obs_cells) or any(
            ref_at != obs_at or not _same_cell(ref_cell, obs_cell)
            for (ref_at, ref_cell), (obs_at, obs_cell) in zip(ref_cells, obs_cells)
        ):
            problems.append(f"line {number}: expected {ref.strip()!r}, got {obs.strip()!r}")
    for number in range(min(len(ref_lines), len(obs_lines)), max(len(ref_lines), len(obs_lines))):
        problems.append(f"line {number + 1}: present in only one of reference and output")
    return problems


def panel_rows(text: str, title_prefix: str) -> "dict[str, dict[str, str]]":
    """``{x: {column: cell}}`` of the first panel whose title starts with the prefix."""
    lines = text.split("\n")
    for index, line in enumerate(lines):
        if line.startswith(title_prefix):
            header = lines[index + 1].split()
            rows = {}
            for row in lines[index + 3 :]:
                if not row.strip():
                    break
                cells = row.split()
                rows[cells[0]] = dict(zip(header[1:], cells[1:]))
            return rows
    raise ValueError(f"no panel titled {title_prefix!r}")


def figure4_target_failures(text: str) -> "list[str]":
    """The paper targets ``benchmarks/bench_figure4.py`` asserts (case a, rho_s = 1)."""
    shorts = panel_rows(text, "== Figure 4 (a) How shorts gain")["1.000"]
    longs = panel_rows(text, "== Figure 4 (a) How longs suffer")["1.000"]
    checks = (
        ("CS-CQ shorts ~3", abs(float(shorts["CS-Central-Q"]) - 3.0) < 0.7),
        ("CS-ID shorts ~4", abs(float(shorts["CS-Immed-Disp"]) - 4.0) < 0.5),
        ("CS-ID long penalty 25%", abs(float(longs["CS-Immed-Disp"]) / 2.0 - 1.25) < 0.01),
        ("CS-CQ long penalty ~10%", abs(float(longs["CS-Central-Q"]) / 2.0 - 1.10) < 0.04),
    )
    return [name for name, ok in checks if not ok]


def analytic_cs_cq(rho_s: float = 1.0) -> "tuple[float, float]":
    """Analytic CS-CQ ``(E[T_S], E[T_L])`` of case (a), rho_l = 0.5, from the reference."""
    text = reference("figure4")
    key = f"{rho_s:.3f}"
    short = panel_rows(text, "== Figure 4 (a) How shorts gain")[key]["CS-Central-Q"]
    long = panel_rows(text, "== Figure 4 (a) How longs suffer")[key]["CS-Central-Q"]
    return float(short), float(long)


_SIM_MEANS = re.compile(r"E\[T_(short|long)\]\s*=\s*(\S+)")


def simulate_means(text: str) -> "dict[str, float]":
    return {cls: float(value) for cls, value in _SIM_MEANS.findall(text)}
