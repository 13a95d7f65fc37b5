"""The ``python -m repro bench`` harness: a recorded performance trajectory.

Each named benchmark times a fixed end-to-end workload (a figure sweep or
a simulation run), records the result as ``results/BENCH_<name>.json``
(wall time, repeat samples, cache hit rates, solver-ladder tiers, machine
calibration) and can compare itself against the committed baselines in
``benchmarks/baselines/`` — CI runs the reduced ``--quick`` variants and
fails on a >30% regression.

Wall-clock numbers are machine-dependent, so every record also times a
fixed numpy *calibration kernel*; when both sides of a comparison carry
one, the regression gate compares calibration-normalized times, which
keeps the gate meaningful across container generations.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .cache import SweepCache, sweep_cache

__all__ = [
    "BENCHMARKS",
    "BenchRecord",
    "calibration_time",
    "compare_records",
    "discover_records",
    "load_baseline",
    "parse_record_filename",
    "record_filename",
    "run_benchmark",
    "write_bench_json",
]

#: Default relative regression tolerance for the CI gate.
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class Benchmark:
    """One named workload with a full and a reduced (``--quick``) grid."""

    name: str
    description: str
    full: Callable[[], object]
    quick: Callable[[], object]


def _figure4_full():
    from ..experiments import figure4_panels

    # Mirrors benchmarks/bench_figure4.py end to end: the default sweep,
    # the rho_l = 0.8 follow-up, and the two rho_l = 0.5 comparison points.
    figure4_panels()
    figure4_panels(rho_l=0.8, rho_s_values=[0.4, 0.8, 0.99, 1.1])
    figure4_panels(rho_l=0.5, rho_s_values=[0.8])
    figure4_panels(rho_l=0.5, rho_s_values=[0.8])


# The quick grids are sized to stay well above timer/scheduler noise
# (tens of milliseconds of real work) while still finishing in well under
# a second each: a too-small workload makes the 30% regression gate fire
# on noise rather than on code.


def _figure4_quick():
    from ..experiments import figure4_panels

    figure4_panels(rho_l=0.5)


def _figure5_full():
    from ..experiments import figure5_panels

    figure5_panels()


def _figure5_quick():
    from ..experiments import figure5_panels

    figure5_panels(rho_s_values=[0.2, 0.4, 0.6, 0.8, 0.9, 0.99])


def _figure6_full():
    from ..experiments import figure6_panels

    figure6_panels()


def _figure6_quick():
    from ..experiments import figure6_panels

    figure6_panels(
        rho_l_values_short=[0.1, 0.2, 0.3, 0.4],
        rho_l_values_long=[0.3, 0.4, 0.5, 0.6, 0.7],
    )


def _simulation(measured_jobs: int):
    from ..core import SystemParameters
    from ..simulation import simulate

    params = SystemParameters.from_loads(rho_s=1.0, rho_l=0.5)
    simulate(
        "cs-cq",
        params,
        seed=0,
        warmup_jobs=5_000,
        measured_jobs=measured_jobs,
    )


BENCHMARKS: "dict[str, Benchmark]" = {
    bench.name: bench
    for bench in (
        Benchmark(
            "figure4",
            "figure-4 sweeps (default grid + rho_l=0.8 follow-up)",
            _figure4_full,
            _figure4_quick,
        ),
        Benchmark("figure5", "figure-5 sweep (Coxian longs)", _figure5_full, _figure5_quick),
        Benchmark("figure6", "figure-6 sweep (vs rho_l)", _figure6_full, _figure6_quick),
        Benchmark(
            "simulation",
            "CS-CQ discrete-event simulation (100k jobs)",
            lambda: _simulation(100_000),
            lambda: _simulation(20_000),
        ),
    )
}


def calibration_time(repeat: int = 5) -> float:
    """Seconds for a fixed numpy kernel; a proxy for this machine's speed.

    Recorded alongside every benchmark so a comparison between records
    made on different machines can normalize out hardware differences.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((200, 200))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        b = a.copy()
        for _ in range(30):
            b = b @ a
            b /= np.abs(b).max()
        best = min(best, time.perf_counter() - start)
    return best


def _solver_summary(cache: SweepCache) -> "dict | None":
    """Ladder-tier breakdown of every QBD solved during the run."""
    solutions = cache.values("analysis-solution")
    if not solutions:
        return None
    methods: "dict[str, int]" = {}
    iterations = []
    for solution in solutions:
        diag = getattr(solution, "diagnostics", None)
        if diag is None:
            continue
        methods[diag.method] = methods.get(diag.method, 0) + 1
        if diag.iterations is not None:
            iterations.append(diag.iterations)
    return {
        "solves": len(solutions),
        "methods": methods,
        "max_iterations": max(iterations) if iterations else None,
    }


@dataclass(frozen=True)
class BenchRecord:
    """JSON-ready result of one benchmark run."""

    name: str
    quick: bool
    wall_time: float
    wall_times: "list[float]"
    cache: "dict | None"
    solver: "dict | None"
    calibration: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "quick": self.quick,
            "wall_time": self.wall_time,
            "wall_times": self.wall_times,
            "repeat": len(self.wall_times),
            "cache": self.cache,
            "solver": self.solver,
            "calibration": self.calibration,
            "machine": platform.machine(),
            "python": platform.python_version(),
        }


def run_benchmark(name: str, quick: bool = False, repeat: int = 3) -> BenchRecord:
    """Time one benchmark (best of ``repeat``) under a sweep-cache scope.

    The first repeat runs cold; cache statistics are taken from its scope
    (later repeats would be all-hit and say nothing about the workload).
    """
    if name not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(sorted(BENCHMARKS))}"
        )
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    bench = BENCHMARKS[name]
    workload = bench.quick if quick else bench.full
    wall_times = []
    cache_stats = solver = None
    for i in range(repeat):
        with sweep_cache() as cache:
            start = time.perf_counter()
            workload()
            wall_times.append(time.perf_counter() - start)
            if i == 0:
                cache_stats = cache.stats()
                solver = _solver_summary(cache)
    return BenchRecord(
        name=name,
        quick=quick,
        wall_time=min(wall_times),
        wall_times=wall_times,
        cache=cache_stats,
        solver=solver,
        calibration=calibration_time(),
    )


def record_filename(name: str, quick: bool = False) -> str:
    """The canonical record filename: ``BENCH_<name>[.quick].json``.

    The filename *is* the pairing identity — discovery and the regression
    gate parse it back with :func:`parse_record_filename`, so every record
    written through here is deterministically pairable with its baseline.
    """
    return f"BENCH_{name}{'.quick' if quick else ''}.json"


def parse_record_filename(filename: str) -> "tuple[str, bool] | None":
    """Invert :func:`record_filename`: ``(name, quick)`` or None.

    Returns None for files that do not follow the canonical naming —
    callers treat those as unpairable and fail loudly rather than guess.
    """
    if not filename.startswith("BENCH_") or not filename.endswith(".json"):
        return None
    stem = filename[len("BENCH_") : -len(".json")]
    name, _, marker = stem.partition(".")
    if not name or marker not in ("", "quick"):
        return None
    return name, marker == "quick"


def discover_records(
    record_dir: "Path | str",
) -> "tuple[list[tuple[str, bool, Path]], list[Path]]":
    """Deterministically enumerate the bench records in a directory.

    Returns ``(records, unparseable)``: records as sorted
    ``(name, quick, path)`` tuples, plus every ``BENCH_*.json``
    whose filename does not parse — the regression gate reports those as
    hard failures, so a stale or hand-misnamed baseline can never be
    silently skipped.
    """
    records = []
    unparseable = []
    for path in sorted(Path(record_dir).glob("BENCH_*.json")):
        parsed = parse_record_filename(path.name)
        if parsed is None:
            unparseable.append(path)
        else:
            records.append((*parsed, path))
    return records, unparseable


def write_bench_json(record_dict: dict, out_dir: "Path | str") -> Path:
    """Atomically persist a record under its canonical filename."""
    from ..robustness.atomic_write import atomic_write_json

    path = Path(out_dir) / record_filename(
        record_dict["name"], bool(record_dict.get("quick"))
    )
    atomic_write_json(path, record_dict, sort_keys=True)
    return path


def load_baseline(name: str, quick: bool, baseline_dir: "Path | str") -> "dict | None":
    """Load the committed baseline record for ``name``, if one exists."""
    path = Path(baseline_dir) / record_filename(name, quick)
    if path.exists():
        return json.loads(path.read_text())
    return None


def compare_records(
    current: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> "tuple[bool, str]":
    """Regression-gate one record against its baseline.

    Returns ``(ok, message)``.  When both records carry a calibration
    time the gate takes the *more favorable* of the raw and the
    calibration-normalized wall-time ratio: normalization corrects for a
    genuinely slower machine (work per unit of machine speed), while the
    raw ratio protects against the calibration kernel itself catching a
    noisy moment on the same machine.  A real code regression inflates
    both ratios, so the gate still fires.
    """
    wall = current["wall_time"]
    base = baseline["wall_time"]
    cal_cur = current.get("calibration")
    cal_base = baseline.get("calibration")
    ratios = {"raw wall time": wall / base}
    if cal_cur and cal_base:
        ratios["calibration-normalized"] = (wall / cal_cur) / (base / cal_base)
    basis, ratio = min(ratios.items(), key=lambda kv: kv[1])
    ok = ratio <= 1.0 + tolerance
    direction = "slower" if ratio > 1.0 else "faster"
    message = (
        f"{current['name']}: {wall:.4g}s vs baseline {base:.4g}s "
        f"({basis} ratio {ratio:.2f}x, {abs(ratio - 1.0) * 100:.0f}% {direction}; "
        f"tolerance {tolerance * 100:.0f}%)"
    )
    return ok, message
