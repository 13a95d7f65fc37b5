"""Capacity probe behind the fixed serve-mix rate.

Usage (from the repository root)::

    python3 perfbench/capacity.py [--seconds 8] [--rates 50,100,...] [--out perfbench/capacity.json]

Runs the serve-mix open loop (``serve.py``, seed 1) once per offered rate
and records, per rate: answered and shed queries, median and tail latency
from the due time, the latency of the last quarter of queries against the
first (a growing backlog shows as a rising ratio), and how late the
generator ran.  The service saturates at the lowest rate that sheds or
whose backlog grows; ``run.py`` (``SERVE_RATE``) offers a rate well below
it, because on a shared machine a stall alone can shed queries at rates
the service otherwise keeps up with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run as bench

BACKLOG_GROWTH = 3.0


def probe(rate: float, seconds: float, workdir: Path) -> dict:
    out = workdir / f"rate-{rate:g}.json"
    child = bench.run_child(
        [bench.HERE / "serve.py", "--seed", 1, "--seconds", seconds, "--rate", rate, "--out", out],
        workdir,
    )
    result = json.loads(out.read_text())
    latencies = [x * 1e3 for x in result["latencies_s"]]
    quarter = max(1, len(latencies) // 4)
    tail_ms, tail_name = bench.tail(latencies)
    return {
        "rate": rate,
        "exit_code": child.code,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "answers": result["fidelity"],
        "p50_ms": statistics.median(latencies),
        "tail_ms": tail_ms,
        "tail": tail_name,
        "backlog_growth": statistics.median(latencies[-quarter:]) / statistics.median(latencies[:quarter]),
        "late_max_ms": result["late_max_s"] * 1e3,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--rates", default="50,75,100,150,200,300,400")
    parser.add_argument("--out", default=str(bench.HERE / "capacity.json"))
    args = parser.parse_args()
    workdir = bench.SCRATCH / "capacity"
    workdir.mkdir(parents=True, exist_ok=True)
    rows = []
    try:
        for rate in (float(r) for r in args.rates.split(",")):
            row = probe(rate, args.seconds, workdir)
            rows.append(row)
            print(json.dumps(row), flush=True)
    finally:
        bench.shutil.rmtree(workdir, ignore_errors=True)
    saturated = [
        r["rate"] for r in rows if r["failed"] or r["backlog_growth"] > BACKLOG_GROWTH
    ]
    record = {
        "machine": bench.environment(),
        "seconds_per_rate": args.seconds,
        "saturation_rate": min(saturated) if saturated else None,
        "offered_rate": bench.SERVE_RATE,
        "rates": rows,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"saturation at {record['saturation_rate']} q/s; serve-mix offers {bench.SERVE_RATE:g} q/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
