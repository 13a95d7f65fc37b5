#!/usr/bin/env python3
"""Paired benchmark gate: a change against its base commit, on one machine.

Usage::

    python3 .github/perfbench_gate.py BASE_DIR HEAD_DIR

``BASE_DIR`` and ``HEAD_DIR`` are two checkouts holding the same
``perfbench/`` and ``BENCHMARK.json`` (CI copies the change's copies over
the base's), so only the code under test differs between them.  For each
workload in :data:`WORKLOADS` the gate runs :data:`PAIRS` pairs of::

    python3 <side>/perfbench/run.py --workload W --seed i --seconds 3

one per side with the same seed ``i``, alternating which side runs first,
and reads the JSON object on the last line of each run's output.

The gate fails when, on any workload:

* a head run prints no result or reads ``"correct": false``;
* head failed more operations than base, summed over the pairs;
* an ``end_to_end`` metric of ``BENCHMARK.json`` has a head median worse
  than the base median by more than the metric's ``bound``.  The bound is
  a relative change in the metric's ``better`` direction: a ``lower``
  metric fails when ``head > base * (1 + bound)``, a ``higher`` one when
  ``head < base * (1 - bound)``.

A base run that prints no result fails the gate too, since there is then
nothing to compare against.  Both sides run on the same machine within
minutes of each other, so a slower host slows both alike; a committed
record could not tell that from a regression.  Exit status 0 means every
check passed, 1 that one failed, 2 a usage error.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

#: The workloads that time a ``python -m repro`` command.  serve-mix, an
#: in-process open loop, runs once per change in the self-test job.
WORKLOADS = ("figure4", "figure6-warm-store", "simulate")
PAIRS = 10
SECONDS = 3


def run_once(side: str, checkout: Path, workload: str, seed: int) -> "dict | None":
    """One benchmark run on one side; its result object, or None."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  {side} {workload} seed {seed}: no result (exit {proc.returncode})")
        print("    " + "\n    ".join((proc.stdout + proc.stderr).strip().splitlines()[-10:]))
        return None
    problems = [line for line in lines if line.startswith("FAIL ")]
    print(f"  {side} {workload} seed {seed}: correct {result['correct']}, "
          f"{result['failed']}/{result['attempted']} failed"
          + "".join(f"\n    {line}" for line in problems))
    return result


def relative_change(base: float, head: float, better: str) -> float:
    """How much worse head is than base, as a share of base (< 0: better)."""
    worse = head - base if better == "lower" else base - head
    return worse / base


def quartiles(runs: "list[dict]", metric: str) -> "list[float]":
    values = [run["metrics"][metric]["value"] for run in runs]
    return statistics.quantiles(values, n=4, method="inclusive")


def spread(q: "list[float]") -> str:
    q1, median, q3 = q
    return f"{median:.5g} ({q1:.5g}-{q3:.5g})"


def compare(workload: str, base: "list[dict]", head: "list[dict]", spec: dict) -> bool:
    """Print one workload's comparison; True when head passes."""
    ok = True
    base_failed = sum(r["failed"] for r in base)
    head_failed = sum(r["failed"] for r in head)
    print(f"{workload}: {len(head)} pairs, failed operations base {base_failed}, "
          f"head {head_failed}")
    if any(not r["correct"] for r in head):
        print("  FAIL: a head run reads \"correct\": false")
        ok = False
    if head_failed > base_failed:
        print("  FAIL: head failed more operations than base")
        ok = False
    print(f"  {'metric':14s} {'base median (quartiles)':>30s} "
          f"{'head median (quartiles)':>30s} {'worse by':>9s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base_q = quartiles(base, name)
        head_q = quartiles(head, name)
        change = relative_change(base_q[1], head_q[1], metric["better"])
        verdict = "ok" if change <= metric["bound"] else "REGRESSION"
        ok &= verdict == "ok"
        print(f"  {name:14s} {spread(base_q):>30s} {spread(head_q):>30s} "
              f"{change:+9.1%} {metric['bound']:6.0%} {verdict}")
    return ok


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: perfbench_gate.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    checkouts = dict(zip(("base", "head"), (Path(arg).resolve() for arg in argv)))
    spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
    results: "dict[str, dict[str, list]]" = {
        w: {"base": [], "head": []} for w in WORKLOADS
    }
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        print(f"pair {pair + 1} of {PAIRS}, {order[0]} first")
        for workload in WORKLOADS:
            for side in order:
                results[workload][side].append(
                    run_once(side, checkouts[side], workload, pair))
    ok = True
    for workload, sides in results.items():
        if None in sides["base"] or None in sides["head"]:
            missing = [s for s in ("base", "head") if None in sides[s]]
            print(f"{workload}: FAIL: {' and '.join(missing)} gave no result in some runs")
            ok = False
            continue
        ok &= compare(workload, sides["base"], sides["head"], spec)
    print("perfbench gate:", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
