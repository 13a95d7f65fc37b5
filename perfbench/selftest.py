"""Fast self-test of the benchmark.

Usage (from the repository root): ``python3 perfbench/selftest.py``

It checks that the table comparison reports a corrupted reference as a
failure, directly and through a figure4 run against a corrupted copy of
the reference.  Then it runs every workload of ``BENCHMARK.json`` once
(one command, one set-up) with tracing off and on, and checks that each
result line carries exactly the metrics the spec names, each with its
unit and a finite value, and that every output check passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import checks
import run as bench


def run_workload(name: str, trace: int) -> dict:
    """``run.py --workload name --seconds 0 --trace N`` in-process; its result line."""
    saved = sys.argv
    sys.argv = ["run.py", "--workload", name, "--seed", "1", "--seconds", "0",
                "--trace", str(trace)]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = bench.main()
    finally:
        sys.argv = saved
    if code != 0:
        raise AssertionError(f"{name} --trace {trace} exited {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def check_result(name: str, trace: int, result: dict, spec: "list[dict]") -> None:
    expected = {metric["name"]: metric["unit"] for metric in spec}
    got = {key: value["unit"] for key, value in result["metrics"].items()}
    if got != expected:
        raise AssertionError(
            f"{name} --trace {trace}: metrics differ from the spec: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, "
            f"wrong unit {sorted(k for k in set(got) & set(expected) if got[k] != expected[k])}"
        )
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    if bad:
        raise AssertionError(f"{name} --trace {trace}: non-finite values for {bad}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{name} --trace {trace}: output checks failed: {result}")


def check_corrupted_reference() -> None:
    reference = checks.reference("figure4")
    cell = "2.5384"  # case (a), CS-CQ shorts at rho_s = 1
    corrupted = reference.replace(cell, "2.5484", 1)
    cases = {
        "identical tables": (reference, 0),
        "a cell off by ten units in its last digit": (corrupted, 1),
        "a cell off by one unit (rounding)": (reference.replace(cell, "2.5385", 1), 0),
        "a blank cell": (reference.replace(cell, " " * len(cell), 1), 1),
        "a changed non-numeric cell": (reference.replace("unstable", "nan     ", 1), 1),
    }
    for what, (text, mismatches) in cases.items():
        found = len(checks.table_mismatches(text, reference))
        if found != mismatches:
            raise AssertionError(f"{what}: {found} mismatching rows, expected {mismatches}")

    bench.SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.SCRATCH) as tmp:
        (Path(tmp) / "figure4.txt").write_text(corrupted)
        saved, checks.REFERENCE_DIR = checks.REFERENCE_DIR, Path(tmp)
        try:
            result = run_workload("figure4", 0)
        finally:
            checks.REFERENCE_DIR = saved
    if result["correct"] or result["failed"] < 1:
        raise AssertionError(f"figure4 against a corrupted reference passed: {result}")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bench.SETUP_REPEATS = 1
    check_corrupted_reference()
    print("ok  corrupted references are reported as failures", flush=True)
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            check_result(workload["name"], trace, run_workload(workload["name"], trace), spec[key])
            print(f"ok  {workload['name']} --trace {trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
