"""Trace rendering: terminal tree, top-k self-time, integrity checks, diffs.

Consumes the JSONL files written by :meth:`TraceCollector.export` (one
header line, then one span record per line).  Self-time is computed as
``total - measure(union of child intervals)`` — the *union*, not the sum,
because a driver-side ``orchestration.point`` envelope can contain spans
from workers that genuinely ran concurrently; summing overlapping
children would manufacture negative self-time where none exists.  A
genuinely negative self-time (a child extending past its parent) is an
instrumentation bug and is what ``--check`` flags.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional

__all__ = [
    "build_tree",
    "check_trace",
    "coverage_fraction",
    "diff_traces",
    "flag_convergence",
    "load_trace",
    "render_trace",
    "self_times",
    "top_spans",
]


def load_trace(path: "Path | str") -> tuple[dict, list[dict]]:
    """Read a trace file; returns ``(header, records)``.

    Tolerates torn/corrupt lines the same way the checkpoint journal
    does: bad lines are skipped.  A missing header yields ``{}``.
    """
    header: dict = {}
    records: list[dict] = []
    for i, line in enumerate(Path(path).read_text().splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(obj, dict):
            continue
        if i == 0 and "format" in obj and "id" not in obj:
            header = obj
        elif "name" in obj and "start" in obj:
            records.append(obj)
    return header, records


def build_tree(records: list[dict]) -> tuple[list[dict], dict[int, list[dict]]]:
    """Return ``(roots, children)`` with children sorted by start time.

    A record whose parent id is missing from the trace (e.g. the parent
    was torn away) is treated as a root rather than dropped.
    """
    by_id = {r["id"]: r for r in records if "id" in r}
    roots: list[dict] = []
    children: dict[int, list[dict]] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    key = lambda r: (r.get("start") or 0.0)  # noqa: E731
    roots.sort(key=key)
    for kids in children.values():
        kids.sort(key=key)
    return roots, children


def _duration(record: dict) -> Optional[float]:
    start, end = record.get("start"), record.get("end")
    if start is None or end is None:
        return None
    return float(end) - float(start)


def _union_measure(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of (possibly overlapping) intervals."""
    merged = 0.0
    current: Optional[tuple[float, float]] = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current is None:
            current = (start, end)
        elif start <= current[1]:
            current = (current[0], max(current[1], end))
        else:
            merged += current[1] - current[0]
            current = (start, end)
    if current is not None:
        merged += current[1] - current[0]
    return merged


def self_times(records: list[dict]) -> dict[int, Optional[float]]:
    """Per-span self-time: total minus the union of child intervals.

    Children are clipped to the parent's bounds first, so a child
    overrunning its parent shows up as *zero* remaining self-time here
    and as an explicit integrity problem in :func:`check_trace` — not as
    a nonsense negative number.  Unclosed spans map to ``None``.
    """
    _, children = build_tree(records)
    result: dict[int, Optional[float]] = {}
    for record in records:
        total = _duration(record)
        if total is None:
            result[record["id"]] = None
            continue
        start, end = float(record["start"]), float(record["end"])
        intervals = []
        for child in children.get(record["id"], ()):
            c_start = child.get("start")
            c_end = child.get("end")
            if c_start is None or c_end is None:
                continue
            clipped = (max(float(c_start), start), min(float(c_end), end))
            intervals.append(clipped)
        result[record["id"]] = total - _union_measure(intervals)
    return result


def _raw_self_times(records: list[dict]) -> dict[int, Optional[float]]:
    """Self-time *without* clipping children — negative values reveal
    children that extend outside their parent (used by check_trace)."""
    _, children = build_tree(records)
    result: dict[int, Optional[float]] = {}
    for record in records:
        total = _duration(record)
        if total is None:
            result[record["id"]] = None
            continue
        intervals = [
            (float(c["start"]), float(c["end"]))
            for c in children.get(record["id"], ())
            if c.get("start") is not None and c.get("end") is not None
        ]
        result[record["id"]] = total - _union_measure(intervals)
    return result


def coverage_fraction(records: list[dict]) -> Optional[float]:
    """Fraction of root wall time covered by instrumented descendants.

    The acceptance bar for a traced sweep: the union of all non-root
    spans, clipped to the root intervals, divided by the union of root
    intervals.  ``None`` when there is no closed root span.
    """
    roots, _ = build_tree(records)
    root_ids = {r["id"] for r in roots}
    root_intervals = [
        (float(r["start"]), float(r["end"]))
        for r in roots
        if r.get("start") is not None and r.get("end") is not None
    ]
    root_measure = _union_measure(root_intervals)
    if root_measure <= 0.0:
        return None
    covered = []
    for record in records:
        if record["id"] in root_ids:
            continue
        if record.get("start") is None or record.get("end") is None:
            continue
        start, end = float(record["start"]), float(record["end"])
        for r_start, r_end in root_intervals:
            lo, hi = max(start, r_start), min(end, r_end)
            if hi > lo:
                covered.append((lo, hi))
    return _union_measure(covered) / root_measure


def check_trace(records: list[dict]) -> list[str]:
    """Integrity problems: unclosed spans, negative self-time, orphans.

    Returns human-readable problem strings (empty list == clean trace).
    This is the CI ``trace-smoke`` gate.
    """
    problems: list[str] = []
    by_id = {r["id"]: r for r in records if "id" in r}
    for record in records:
        label = f"span #{record.get('id')} {record.get('name', '?')!r}"
        if record.get("end") is None:
            problems.append(f"{label}: never closed (unclosed parent)")
            continue
        duration = _duration(record)
        if duration is not None and duration < 0.0:
            problems.append(f"{label}: negative duration {duration:.3g}s")
        parent = record.get("parent")
        if parent is not None and parent not in by_id:
            problems.append(f"{label}: references missing parent #{parent}")
    for span_id, self_time in _raw_self_times(records).items():
        if self_time is not None and self_time < -1e-9:
            record = by_id[span_id]
            problems.append(
                f"span #{span_id} {record.get('name', '?')!r}: negative "
                f"self-time {self_time:.3g}s (children extend outside parent)"
            )
    return problems


def flag_convergence(records: list[dict]) -> list[dict]:
    """Spans marking non-converged / rejected fixpoint iterations.

    A span is flagged when its attributes carry ``accepted: false`` (a
    fallback-ladder rung that missed its tolerance) or an ``error``.
    """
    flagged = []
    for record in records:
        attrs = record.get("attrs") or {}
        if attrs.get("accepted") is False or "error" in attrs:
            flagged.append(record)
    return flagged


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "   open"
    if value < 1e-3:
        return f"{value * 1e6:6.1f}µs"
    if value < 1.0:
        return f"{value * 1e3:6.1f}ms"
    return f"{value:6.2f}s "


def _attr_preview(attrs: dict, limit: int = 4) -> str:
    parts = []
    for key, value in attrs.items():
        if isinstance(value, dict):
            continue  # iteration traces etc. are too wide for the tree
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            text = str(value)
            if len(text) > 32:
                text = text[:29] + "..."
            parts.append(f"{key}={text}")
        if len(parts) >= limit:
            break
    return " ".join(parts)


def render_trace(
    records: list[dict],
    top: int = 5,
    max_depth: Optional[int] = None,
) -> str:
    """Terminal tree with self/total times, then top-k and flag reports."""
    roots, children = build_tree(records)
    selfs = self_times(records)
    lines: list[str] = []
    lines.append(f"{'total':>9} {'self':>9}  span")

    def walk(record: dict, prefix: str, is_last: bool, depth: int) -> None:
        total = _duration(record)
        self_time = selfs.get(record["id"])
        connector = "" if not prefix and depth == 0 else ("└─ " if is_last else "├─ ")
        attrs = _attr_preview(record.get("attrs") or {})
        lines.append(
            f"{_fmt_seconds(total):>9} {_fmt_seconds(self_time):>9}  "
            f"{prefix}{connector}{record.get('name', '?')}"
            + (f"  [{attrs}]" if attrs else "")
        )
        if max_depth is not None and depth + 1 >= max_depth:
            return
        kids = children.get(record["id"], [])
        for i, child in enumerate(kids):
            extension = "" if not prefix and depth == 0 else ("   " if is_last else "│  ")
            walk(child, prefix + extension, i == len(kids) - 1, depth + 1)

    for i, root in enumerate(roots):
        walk(root, "", i == len(roots) - 1, 0)

    slowest = top_spans(records, top)
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} spans by self-time:")
        for record, self_time in slowest:
            attrs = _attr_preview(record.get("attrs") or {})
            lines.append(
                f"  {_fmt_seconds(self_time)}  {record.get('name', '?')}"
                + (f"  [{attrs}]" if attrs else "")
            )

    flagged = flag_convergence(records)
    if flagged:
        lines.append("")
        lines.append(f"{len(flagged)} span(s) flagged (non-converged or errored):")
        for record in flagged:
            attrs = record.get("attrs") or {}
            reason = attrs.get("error") or (
                f"rejected, residual {attrs.get('residual')}"
                if attrs.get("accepted") is False
                else "flagged"
            )
            lines.append(f"  {record.get('name', '?')}: {reason}")

    coverage = coverage_fraction(records)
    if coverage is not None:
        lines.append("")
        lines.append(f"instrumented coverage: {coverage * 100.0:.1f}% of root wall time")
    return "\n".join(lines)


def top_spans(records: list[dict], k: int) -> list[tuple[dict, float]]:
    """The ``k`` spans with the largest self-time, descending."""
    selfs = self_times(records)
    by_id = {r["id"]: r for r in records if "id" in r}
    ranked = sorted(
        ((by_id[sid], st) for sid, st in selfs.items() if st is not None),
        key=lambda pair: pair[1],
        reverse=True,
    )
    return ranked[: max(0, k)]


def _aggregate_by_name(records: list[dict]) -> dict[str, tuple[int, float]]:
    """Per span-name ``(count, total self seconds)``."""
    selfs = self_times(records)
    by_id = {r["id"]: r for r in records if "id" in r}
    out: dict[str, tuple[int, float]] = {}
    for span_id, self_time in selfs.items():
        if self_time is None:
            continue
        name = by_id[span_id].get("name", "?")
        count, total = out.get(name, (0, 0.0))
        out[name] = (count + 1, total + self_time)
    return out


def diff_traces(a_records: list[dict], b_records: list[dict]) -> str:
    """Per-stage attribution diff between two traces.

    Aggregates self-time by span name in each trace and reports the
    delta, sorted by absolute change — "the 30% regression is all
    in ``qbd.rung.successive-substitution``" in one table.
    """
    a_agg = _aggregate_by_name(a_records)
    b_agg = _aggregate_by_name(b_records)
    names = sorted(set(a_agg) | set(b_agg))
    rows = []
    for name in names:
        a_count, a_total = a_agg.get(name, (0, 0.0))
        b_count, b_total = b_agg.get(name, (0, 0.0))
        delta = b_total - a_total
        ratio = (b_total / a_total) if a_total > 0.0 else None
        rows.append((abs(delta), name, a_count, a_total, b_count, b_total, delta, ratio))
    rows.sort(reverse=True)
    width = max([len(name) for name in names] + [len("span")])
    lines = [
        f"{'span':<{width}}  {'A count':>7} {'A self':>9}  "
        f"{'B count':>7} {'B self':>9}  {'delta':>9}  {'B/A':>6}"
    ]
    for _, name, a_count, a_total, b_count, b_total, delta, ratio in rows:
        ratio_text = "   new" if ratio is None else f"{ratio:6.2f}"
        lines.append(
            f"{name:<{width}}  {a_count:>7} {_fmt_seconds(a_total):>9}  "
            f"{b_count:>7} {_fmt_seconds(b_total):>9}  "
            f"{_fmt_seconds(delta):>9}  {ratio_text}"
        )
    a_sum = sum(total for _, total in a_agg.values())
    b_sum = sum(total for _, total in b_agg.values())
    lines.append("")
    overall = f"{b_sum / a_sum:.2f}x" if a_sum > 0.0 else "n/a"
    lines.append(
        f"total self-time: A {_fmt_seconds(a_sum).strip()} -> "
        f"B {_fmt_seconds(b_sum).strip()} ({overall})"
    )
    return "\n".join(lines)
