#!/usr/bin/env python3
"""The repository benchmark: every workload timed end to end, from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each one exists):

``figure4``             ``python -m repro figure 4`` with default flags
``figure6-warm-store``  ``python -m repro figure 6 --store`` rerun against a
                        store that a cold run filled during set-up
``serve-mix``           an open loop of Zipf-popular scenario queries against
                        an in-process ``QueryService(workers=2)``
``simulate``            ``python -m repro simulate --policy cs-cq --rho-s 1.0
                        --rho-l 0.5 --seed <seed>``

Every command runs in a fresh interpreter with ``src`` on ``PYTHONPATH``,
in a fresh scratch directory under ``.perfbench/`` and with every
``REPRO_*`` variable removed from its environment except the ones the
workload sets.  ``python -m repro`` commands go through ``launch.py``,
which calls the same ``main`` and notes when start-up ended, so every
timed command also gives a set-up time.  The run repeats the command for
``--seconds``, checks every output, and prints a record followed, on its
last line, by one JSON object.  With ``--trace 0`` its metrics are the
end-to-end ones, with times at a reference pace of the machine (see
:class:`PaceSampler`); with ``--trace 1`` the commands run with the layer
wrappers of ``layers.py`` installed (alternating with plain runs, which
give the tracing overhead) and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: Offered serve-mix rate in queries per second: a quarter of the 100 q/s
#: at which the capacity probe recorded in ``capacity.json``
#: (``capacity.py``) saw the backlog grow; it shed from 150 q/s.  Half of
#: it is too close: on a shared machine a stall alone can fill the
#: 16-query admission queue.  At 25 q/s that takes a stall of more than
#: half a second.
SERVE_RATE = 25.0
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
#: figure6-warm-store: cold store fills per run (each one is a set-up).
COLD_FILLS = 3
#: A single command that runs longer than this is killed and counted failed.
CHILD_TIMEOUT = 100.0
#: Simulated means must be within this share of the analytic CS-CQ value.
SIMULATE_TOLERANCE = 0.05
SIMULATE_ARGS = ("simulate", "--policy", "cs-cq", "--rho-s", "1.0", "--rho-l", "0.5")
FIGURE_POINTS = {4: 174, 6: 177}
#: Candidate tail percentiles, highest first; the tail is the first with at
#: least :data:`TAIL_BEYOND` samples beyond it.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10
#: serve-mix takes its tail per window of this many consecutive queries
#: (the figures per command) and reports the median window: a stall of a
#: shared machine delays a burst of queries, which moved a tail taken over
#: the whole run by half between runs of the same code.
SERVE_WINDOW = 100
#: The pace sampler times :data:`PACE_LOOPS` iterations of a fixed
#: interpreter loop every :data:`PACE_INTERVAL` seconds of a run (about 2%
#: of one core).  On a shared host the machine's speed drifts by up to 2x
#: over minutes, and every workload slows alike, so end-to-end times are
#: reported at a reference pace: scaled by :data:`REFERENCE_CHUNK_S` over
#: the run's median sample.
PACE_INTERVAL = 0.1
PACE_LOOPS = 30_000
#: The loop's time on an idle 2-core x86-64 VM (Python 3.11).
REFERENCE_CHUNK_S = 0.0022

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "exact_frac": "ratio",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
}

#: Per-layer metrics: unit, and the layer whose wrappers produce it (a
#: metric whose layer is absent from the code under test is not reported).
PER_LAYER = {
    "startup.import_s": ("s", None),
    "startup.import_scipy_s": ("s", None),
    "startup.modules": ("count", None),
    "orchestration.points": ("count", "orchestration.run"),
    "orchestration.points_failed": ("count", "orchestration.run"),
    "orchestration.run_s": ("s", "orchestration.run"),
    "orchestration.worker_wait_s": ("s", "orchestration.wait"),
    "orchestration.journal_writes": ("count", "orchestration.journal"),
    "orchestration.journal_s": ("s", "orchestration.journal"),
    "orchestration.journal_bytes": ("bytes", "orchestration.journal"),
    "orchestration.manifest_writes": ("count", "orchestration.manifest"),
    "orchestration.manifest_s": ("s", "orchestration.manifest"),
    "experiments.self_s": ("s", "experiments"),
    "core.analyses": ("count", "core"),
    "core.self_s": ("s", "core"),
    "busy_periods.calls": ("count", "busy_periods"),
    "busy_periods.s": ("s", "busy_periods"),
    "distributions.fits": ("count", "distributions"),
    "distributions.fit_s": ("s", "distributions"),
    "markov.qbd_solves": ("count", "markov"),
    "markov.qbd_s": ("s", "markov"),
    "markov.r_iterations": ("count", "markov"),
    "markov.fallbacks": ("count", "markov"),
    "robustness.condest_calls": ("count", "robustness.condest"),
    "robustness.condest_s": ("s", "robustness.condest"),
    "robustness.escalations": ("count", "robustness.escalation"),
    "robustness.escalation_s": ("s", "robustness.escalation"),
    "robustness.not_trusted": ("count", "robustness.verdict"),
    "contracts.evaluations": ("count", "contracts"),
    "contracts.s": ("s", "contracts"),
    "contracts.failed": ("count", "contracts"),
    "perf.cache.lookups": ("count", "perf.cache"),
    "perf.cache.hit_ratio": ("ratio", "perf.cache"),
    "perf.store.gets": ("count", "perf.store.get"),
    "perf.store.get_s": ("s", "perf.store.get"),
    "perf.store.hit_ratio": ("ratio", "perf.store.get"),
    "perf.store.read_bytes": ("bytes", "perf.store.get"),
    "perf.store.puts": ("count", "perf.store.put"),
    "perf.store.put_s": ("s", "perf.store.put"),
    "perf.store.write_bytes": ("bytes", "perf.store.put"),
    "perf.store.corrupt": ("count", "perf.store.get"),
    "perf.codec.decode_s": ("s", "perf.codec.decode"),
    "perf.codec.encode_s": ("s", "perf.codec.encode"),
    "service.queue_wait_ms": ("ms", "service.exact"),
    "service.exact_ms": ("ms", "service.exact"),
    "service.cached_hits": ("count", "service.cached"),
    "service.rungs_per_answer": ("count", "service.submit"),
    "service.shed": ("count", "service.submit"),
    "service.retries": ("count", "service.submit"),
    "simulation.run_s": ("s", "simulation"),
    "simulation.jobs_per_s": ("1/s", "simulation"),
    "loadgen.late_max_ms": ("ms", None),
    "trace.overhead_frac": ("ratio", None),
    "trace.coverage": ("ratio", None),
}

#: Per-layer metrics that come from the cold store fill on figure6-warm-store.
WRITE_SIDE = (
    "perf.store.puts",
    "perf.store.put_s",
    "perf.store.write_bytes",
    "perf.codec.encode_s",
)


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #


class Child(NamedTuple):
    code: int
    wall: float
    spawn: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env(extra: "dict | None" = None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(argv, cwd: Path, env: "dict | None" = None) -> Child:
    """Run ``python <argv>`` to completion; wall time, peak RSS and output.

    The child gets its own process group, which is killed after it exits
    (or after :data:`CHILD_TIMEOUT`), so no worker it started survives it.
    ``ru_maxrss`` of a reaped child covers the child and the descendants
    it reaped.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    out, err = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out, "wb") as so, open(err, "wb") as se:
        spawn = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *map(str, argv)],
            cwd=cwd,
            env=child_env(env),
            stdout=so,
            stderr=se,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return Child(
        proc.returncode,
        wall,
        spawn,
        usage.ru_maxrss / 1024.0,
        out.read_text(errors="replace"),
        err.read_text(errors="replace"),
    )


def _pace_loop() -> int:
    total = 0
    for i in range(PACE_LOOPS):
        total += i * i % 7
    return total


class PaceSampler(threading.Thread):
    """Times :func:`_pace_loop` every :data:`PACE_INTERVAL` seconds until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stopped = threading.Event()
        self.samples: "list[float]" = []

    def run(self) -> None:
        while not self.stopped.wait(PACE_INTERVAL):
            start = time.perf_counter()
            _pace_loop()
            self.samples.append(time.perf_counter() - start)

    def pace(self) -> float:
        """The run's median sample over the reference: above 1 on a slower machine."""
        return statistics.median(self.samples) / REFERENCE_CHUNK_S if self.samples else 1.0

    def stop(self) -> None:
        self.stopped.set()
        self.join()


class Run:
    """One benchmark run: its arguments and a private scratch directory."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.dir = SCRATCH / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.sampler = PaceSampler()
        self.sampler.start()
        self._count = 0
        #: figure6-warm-store: the filled store and the cold pass's stdout.
        self.store_env: "dict | None" = None
        self.cold_stdout: "str | None" = None
        #: Traced runs: wrapper targets missing from the code under test.
        self.absent: "set[str]" = set()

    def note_absent(self, stats: "list[dict]") -> None:
        self.absent.update(name for s in stats for name in s["absent"])

    def fresh(self, tag: str) -> Path:
        """A new, empty directory for one command."""
        self._count += 1
        path = self.dir / f"{self._count:03d}-{tag}"
        path.mkdir()
        return path

    def repeat(self, seconds: float, step) -> list:
        """Call ``step(i)`` while, at the mean pace so far, the next call
        ends within ``seconds`` (at least once)."""
        results, start = [], time.perf_counter()
        while True:
            results.append(step(len(results)))
            elapsed = time.perf_counter() - start
            if elapsed * (len(results) + 1) / len(results) > seconds:
                return results

    def close(self) -> None:
        self.sampler.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def tail(samples: "list[float]") -> "tuple[float, str]":
    """The highest percentile with :data:`TAIL_BEYOND` samples beyond it, and its name.

    With too few samples no percentile qualifies; the median is returned,
    because the largest of a handful of samples is mostly noise.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], f"p{p:g}"
    return statistics.median(ordered), "p50 (too few operations for a tail)"


def import_setup(run: Run) -> float:
    """Seconds from spawning a fresh interpreter to ``repro.__main__`` imported."""
    code = "import time; import repro.__main__; print(time.time())"
    child = run_child(["-c", code], run.fresh("setup"))
    if child.code != 0:
        raise RuntimeError(f"importing repro failed:\n{child.stderr[-2000:]}")
    return float(child.stdout) - child.spawn


def repro_cli(run: Run, workdir: Path, args, traced: bool) -> "tuple[Child, float]":
    """``python -m repro <args>`` in ``workdir``, through ``launch.py``.

    Returns the child and its start-up time: spawn to ``repro.__main__``
    imported.  A traced command leaves its layer records in ``workdir``.
    """
    argv = [HERE / "launch.py", *(["--trace"] if traced else []), workdir, *args]
    child = run_child(argv, workdir, run.store_env)
    ready = workdir / "ready"
    startup = float(ready.read_text()) - child.spawn if ready.exists() else math.nan
    return child, startup


def setup_samples(run: Run, outcomes: "list[Outcome]") -> "list[float]":
    """The timed commands' start-up times, topped up to :data:`SETUP_REPEATS`
    with import-only interpreters."""
    samples = [o.setup for o in outcomes if math.isfinite(o.setup)]
    while len(samples) < SETUP_REPEATS:
        samples.append(import_setup(run))
    return samples


def environment() -> str:
    """Machine and toolchain facts every record states."""
    mount, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) > 2 and str(SCRATCH).startswith(fields[1]) and len(fields[1]) > len(mount):
                    mount, kind = fields[1], fields[2]
    except OSError:
        pass
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {importlib.metadata.version(package)}")
        except importlib.metadata.PackageNotFoundError:
            versions.append(f"{package} missing")
    return (f"nproc {os.cpu_count()}, scratch filesystem {kind}, "
            f"python {platform.python_version()}, " + ", ".join(versions))


def load_stats(stats_dir: Path) -> "list[dict]":
    return [json.loads(p.read_text()) for p in sorted(stats_dir.glob("stats-*.json"))]


def layer_metrics(stats: "list[dict]") -> "tuple[dict, set]":
    """Per-layer metrics summed over every process of a traced command,
    and the layers whose entry points exist in the code under test."""

    def self_s(layer):
        return sum(s["self_s"].get(layer, 0.0) for s in stats)

    def count(name):
        return sum(s["counts"].get(name, 0.0) for s in stats)

    def p50_ms(name):
        values = [x for s in stats for x in s["samples"].get(name, [])]
        return statistics.median(values) * 1e3 if values else 0.0

    def ratio(part, whole):
        return part / whole if whole else 0.0

    lookups = count("perf.cache.calls")
    gets = count("perf.store.get.calls")
    sim_s = self_s("simulation")
    metrics = {
        "orchestration.points": count("orchestration.points"),
        "orchestration.points_failed": count("orchestration.points_failed"),
        "orchestration.run_s": self_s("orchestration.run"),
        "orchestration.worker_wait_s": self_s("orchestration.wait"),
        "orchestration.journal_writes": count("orchestration.journal.calls"),
        "orchestration.journal_s": self_s("orchestration.journal"),
        "orchestration.journal_bytes": count("orchestration.journal_bytes"),
        "orchestration.manifest_writes": count("orchestration.manifest.calls"),
        "orchestration.manifest_s": self_s("orchestration.manifest"),
        "experiments.self_s": self_s("experiments"),
        "core.analyses": count("core.analyses"),
        "core.self_s": self_s("core"),
        "busy_periods.calls": count("busy_periods.entries"),
        "busy_periods.s": self_s("busy_periods"),
        "distributions.fits": count("distributions.entries"),
        "distributions.fit_s": self_s("distributions"),
        "markov.qbd_solves": count("markov.qbd_solves"),
        "markov.qbd_s": self_s("markov"),
        "markov.r_iterations": count("markov.r_iterations"),
        "markov.fallbacks": count("markov.fallbacks"),
        "robustness.condest_calls": count("robustness.condest.calls"),
        "robustness.condest_s": self_s("robustness.condest"),
        "robustness.escalations": count("robustness.escalations"),
        "robustness.escalation_s": self_s("robustness.escalation"),
        "robustness.not_trusted": count("robustness.not_trusted"),
        "contracts.evaluations": count("contracts.calls"),
        "contracts.s": self_s("contracts"),
        "contracts.failed": count("contracts.failed"),
        "perf.cache.lookups": lookups,
        "perf.cache.hit_ratio": ratio(count("perf.cache.hits"), lookups),
        "perf.store.gets": gets,
        "perf.store.get_s": self_s("perf.store.get"),
        "perf.store.hit_ratio": ratio(count("perf.store.hits"), gets),
        "perf.store.read_bytes": count("perf.store.read_bytes"),
        "perf.store.puts": count("perf.store.put.calls"),
        "perf.store.put_s": self_s("perf.store.put"),
        "perf.store.write_bytes": count("perf.store.write_bytes"),
        "perf.store.corrupt": count("perf.store.corrupt"),
        "perf.codec.decode_s": self_s("perf.codec.decode"),
        "perf.codec.encode_s": self_s("perf.codec.encode"),
        "service.queue_wait_ms": p50_ms("service.queue_wait_s"),
        "service.exact_ms": p50_ms("service.exact_s"),
        "service.cached_hits": count("service.cached_hits"),
        "service.rungs_per_answer": ratio(count("service.rungs"), count("service.answers")),
        "service.shed": count("service.shed"),
        "service.retries": count("service.retries"),
        "simulation.run_s": sim_s,
        "simulation.jobs_per_s": ratio(count("simulation.jobs"), sim_s),
    }
    present = set().union(*(s["present"] for s in stats))
    return metrics, present


def startup_metrics(run: Run) -> dict:
    """``-X importtime`` of a fresh interpreter importing ``repro.__main__``."""
    child = run_child(["-X", "importtime", "-c", "import repro.__main__"], run.fresh("importtime"))
    import_us = scipy_us = modules = 0
    for line in child.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        modules += 1
        package = name.strip()
        if package == "scipy" or package.startswith("scipy."):
            scipy_us += int(self_us)
        if not name[1:].startswith(" "):  # top level: no nesting indent
            import_us += int(cumulative_us)
    return {
        "startup.import_s": import_us / 1e6,
        "startup.import_scipy_s": scipy_us / 1e6,
        "startup.modules": float(modules),
    }


def report_layers(metrics: dict, present: set) -> dict:
    """Per-layer metrics in table order, without those of absent layers."""
    return {
        name: metrics[name]
        for name, (_, layer) in PER_LAYER.items()
        if layer is None or layer in present
    }


class Outcome(NamedTuple):
    """What one command did: operations, failures, and its measurements."""

    attempted: int
    failed: int
    degraded: int
    latencies: "list[float]"
    wall: float
    rss_mb: float
    problems: "list[str]"
    #: Start-up time of the command's interpreter, where it is measured.
    setup: float = math.nan


def end_to_end(
    outcomes: "list[Outcome]",
    setup_times: "list[float]",
    pace: float,
    paced_wall: bool = True,
    groups: "list[list[float]] | None" = None,
) -> "tuple[dict, list[str]]":
    """End-to-end metrics over the measured commands, and notes on how they were taken.

    Times are divided by the run's ``pace`` (see :class:`PaceSampler`);
    ``paced_wall=False`` keeps ``wall_s`` as measured, for a command whose
    length a schedule fixes.  ``query_tail_ms`` is the median over
    ``groups`` of latencies (by default, one per command) of each group's
    tail.
    """
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    degraded = sum(o.degraded for o in outcomes)
    latencies_ms = [x * 1e3 for o in outcomes for x in o.latencies] or [math.nan]
    tails = [tail([x * 1e3 for x in group] or [math.nan])
             for group in (groups or [o.latencies for o in outcomes])]
    tail_ms = statistics.median(value for value, _ in tails)
    tail_name = "/".join(sorted({name for _, name in tails}))
    measured = {
        "wall_s": statistics.median(o.wall for o in outcomes),
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_tail_ms": tail_ms,
    }
    metrics = {
        "wall_s": measured["wall_s"] / pace if paced_wall else measured["wall_s"],
        "setup_s": measured["setup_s"] / pace,
        "peak_rss_mb": statistics.median(o.rss_mb for o in outcomes),
        "ok_frac": (attempted - failed) / attempted,
        "exact_frac": (attempted - failed - degraded) / max(1, attempted - failed),
        "query_p50_ms": measured["query_p50_ms"] / pace,
        "query_tail_ms": measured["query_tail_ms"] / pace,
    }
    return metrics, [
        f"query_tail_ms is the median over {len(tails)} groups of each group's {tail_name} "
        f"({len(latencies_ms)} operation latencies)",
        f"times are at the reference pace: divided by {pace:.4f}, the pace loop's median "
        f"time over {REFERENCE_CHUNK_S * 1e3:g} ms (serve-mix wall_s is not); as measured: "
        + ", ".join(f"{name} {value:.6g}" for name, value in measured.items()),
    ]


def traced_pairs(run: Run, command, check=None) -> "tuple[dict, set, list[Outcome]]":
    """Alternate plain and traced runs of ``command(index, traced)``.

    Per-layer metrics are medians over the traced runs; the overhead is
    the traced median wall time over the plain one.  Coverage is the
    share of a traced run's wall time that start-up plus the main
    process's layer self times account for.  The commands form a closed
    loop, so the generator's lateness is the longest the harness took
    between one command's exit and the next one's start.
    """
    plain, traced, outcomes, spans = [], [], [], []

    def pair(index: int) -> set:
        child, outcome, _ = command(index, False)
        plain.append(child.wall)
        outcomes.append(outcome)
        spans.append((child.spawn, child.spawn + child.wall))
        child, outcome, stats_dir = command(index, True)
        spans.append((child.spawn, child.spawn + child.wall))
        stats = load_stats(stats_dir)
        run.note_absent(stats)
        metrics, present = layer_metrics(stats)
        problem = check(metrics) if check else None
        if problem:
            outcome = outcome._replace(failed=max(1, outcome.failed),
                                       problems=outcome.problems + [problem])
        outcomes.append(outcome)
        startup = float((stats_dir / "ready").read_text()) - child.spawn
        main_self = sum(sum(s["self_s"].values()) for s in stats if s["main"])
        metrics["trace.coverage"] = (startup + main_self) / child.wall
        traced.append((child.wall, metrics))
        return present

    present = run.repeat(run.seconds, pair)[0]
    metrics = {key: statistics.median(m[key] for _, m in traced) for key in traced[0][1]}
    metrics["trace.overhead_frac"] = (
        statistics.median(w for w, _ in traced) / statistics.median(plain) - 1.0
    )
    metrics["loadgen.late_max_ms"] = 1e3 * max(
        start - previous_end for (_, previous_end), (start, _) in zip(spans, spans[1:])
    )
    metrics.update(startup_metrics(run))
    return metrics, present, outcomes


# --------------------------------------------------------------------------- #
# Figures
# --------------------------------------------------------------------------- #


def figure_outcome(child: Child, workdir: Path, number: int, warm_of: "str | None") -> Outcome:
    """Check a figure command's tables and read its run manifest.

    A failed operation is a sweep point that failed, timed out or broke a
    contract, or a table row that differs from the reference; each failed
    paper target counts one more.  ``warm_of`` is the cold pass's stdout
    that a warm pass must repeat byte for byte, without QBD solves.
    """
    points = FIGURE_POINTS[number]
    if child.code != 0:
        return Outcome(points, points, 0, [], child.wall, child.rss_mb,
                       [f"figure {number} exited {child.code}: {child.stderr[-500:]}"])
    problems = checks.table_mismatches(checks.reference(f"figure{number}"), child.stdout)
    bad_rows = len(problems)
    if number == 4 and not bad_rows:
        targets = checks.figure4_target_failures(child.stdout)
        problems += [f"paper target failed: {name}" for name in targets]
        bad_rows += len(targets)
    manifest = json.loads((workdir / f"figure{number}.manifest.json").read_text())
    counts = manifest["counts"]
    if warm_of is not None:
        if child.stdout != warm_of:
            problems.append("warm stdout differs from the cold pass")
            bad_rows = max(bad_rows, 1)
        solves = manifest.get("metrics", {}).get("counters", {}).get("qbd.solves", 0)
        if solves:
            problems.append(f"warm pass ran {solves:g} QBD solves")
            bad_rows = max(bad_rows, 1)
    failed = max(bad_rows, counts["failed"] + counts["timeout"] + counts["suspect"])
    latencies = [p["wall_time"] for p in manifest["points"]]
    return Outcome(counts["total"], min(failed, counts["total"]), counts["degraded"],
                   latencies, child.wall, child.rss_mb, problems[:5])


class Figure:
    """``python -m repro figure N``; with ``store``, the warm-store rerun."""

    def __init__(self, number: int, store: bool):
        self.number = number
        self.store = store

    def command(self, run: Run, traced: bool, warm: bool) -> "tuple[Child, Outcome, Path]":
        workdir = run.fresh("traced" if traced else "plain")
        args = ["figure", str(self.number), "--checkpoint-dir", workdir]
        if self.store:
            args.append("--store")
        child, startup = repro_cli(run, workdir, args, traced)
        warm_of = run.cold_stdout if warm else None
        outcome = figure_outcome(child, workdir, self.number, warm_of)
        return child, outcome._replace(setup=startup), workdir

    def cold_fill(self, run: Run, traced: bool = False):
        """Fill a fresh store with a cold run; later commands use that store."""
        run.store_env = {"REPRO_STORE": str(run.fresh("store"))}
        result = self.command(run, traced, warm=False)
        run.cold_stdout = result[0].stdout
        return result

    def measure(self, run: Run):
        fills = [self.cold_fill(run) for _ in range(COLD_FILLS if self.store else 0)]
        timed = [o for _, o, _ in run.repeat(
            run.seconds, lambda i: self.command(run, False, warm=self.store))]
        if self.store:
            setup_times = [child.wall for child, _, _ in fills]
        else:
            setup_times = setup_samples(run, timed)
        metrics, notes = end_to_end(timed, setup_times, run.sampler.pace())
        return metrics, notes, [outcome for _, outcome, _ in fills] + timed

    def trace(self, run: Run):
        outcomes, cold = [], None
        if self.store:
            _, outcome, stats_dir = self.cold_fill(run, traced=True)
            outcomes.append(outcome)
            stats = load_stats(stats_dir)
            run.note_absent(stats)
            cold, _ = layer_metrics(stats)

        def no_solves(metrics):
            if self.store and metrics["markov.qbd_solves"]:
                return f"warm pass ran {metrics['markov.qbd_solves']:g} QBD solves"
            return None

        metrics, present, traced = traced_pairs(
            run, lambda i, t: self.command(run, t, warm=self.store), no_solves)
        if cold is not None:
            metrics.update({key: cold[key] for key in WRITE_SIDE})
        return report_layers(metrics, present), [], outcomes + traced


# --------------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------------- #


class Simulate:
    """``python -m repro simulate`` at the CS-CQ validation point."""

    def command(self, run: Run, index: int, traced: bool):
        seed = run.seed * 1000 + index
        workdir = run.fresh("traced" if traced else "plain")
        child, startup = repro_cli(run, workdir, [*SIMULATE_ARGS, "--seed", seed], traced)
        problems = []
        if child.code != 0:
            problems.append(f"simulate exited {child.code}: {child.stderr[-500:]}")
        else:
            means = checks.simulate_means(child.stdout)
            for cls, expected in zip(("short", "long"), checks.analytic_cs_cq()):
                observed = means.get(cls, math.nan)
                if not abs(observed - expected) <= SIMULATE_TOLERANCE * expected:
                    problems.append(
                        f"seed {seed}: E[T_{cls}] = {observed} not within "
                        f"{SIMULATE_TOLERANCE:.0%} of the analytic {expected}"
                    )
        outcome = Outcome(1, int(bool(problems)), 0, [child.wall], child.wall,
                          child.rss_mb, problems, startup)
        return child, outcome, workdir

    def measure(self, run: Run):
        timed = [o for _, o, _ in run.repeat(run.seconds, lambda i: self.command(run, i, False))]
        metrics, notes = end_to_end(timed, setup_samples(run, timed), run.sampler.pace())
        return metrics, notes, timed

    def trace(self, run: Run):
        metrics, present, outcomes = traced_pairs(
            run, lambda i, t: self.command(run, 2 * i + t, t))
        return report_layers(metrics, present), [], outcomes


# --------------------------------------------------------------------------- #
# serve-mix
# --------------------------------------------------------------------------- #


class Serve:
    """The open loop of ``serve.py`` against an in-process QueryService."""

    def command(self, run: Run, seconds: float, traced: bool = False, setup_only: bool = False):
        workdir = run.fresh("serve")
        out = workdir / "result.json"
        argv = [HERE / "serve.py", "--seed", run.seed, "--seconds", seconds,
                "--rate", SERVE_RATE, "--out", out]
        if setup_only:
            argv.append("--setup-only")
        stats_dir = None
        if traced:
            stats_dir = workdir / "stats"
            stats_dir.mkdir()
            argv += ["--stats-dir", stats_dir]
        child = run_child(argv, workdir)
        result = json.loads(out.read_text()) if out.exists() else {}
        setup = result.get("ready", math.inf) - child.spawn
        if "latencies_s" not in result or child.code != 0:
            attempted = 1 if setup_only else max(1, round(SERVE_RATE * seconds))
            outcome = Outcome(attempted, attempted, 0, [], child.wall, child.rss_mb,
                              [f"serve exited {child.code}: {child.stderr[-500:]}"])
            return setup, outcome, result, stats_dir
        fidelity = result["fidelity"]
        outcome = Outcome(
            result["attempted"],
            result["failed"],
            fidelity.get("truncated", 0) + fidelity.get("bound", 0),
            result["latencies_s"],
            result["finished"] - child.spawn,
            child.rss_mb,
            result["problems"],
        )
        return setup, outcome, result, stats_dir

    def measure(self, run: Run):
        setup_times = [self.command(run, 0, setup_only=True)[0]
                       for _ in range(SETUP_REPEATS - 1)]
        setup, outcome, result, _ = self.command(run, run.seconds)
        latencies = outcome.latencies
        windows = [latencies[i:i + SERVE_WINDOW] for i in range(0, len(latencies), SERVE_WINDOW)]
        if len(windows) > 1 and len(windows[-1]) < SERVE_WINDOW:
            windows[-2:] = [windows[-2] + windows[-1]]
        metrics, notes = end_to_end([outcome], setup_times + [setup], run.sampler.pace(),
                                    paced_wall=False, groups=windows)
        late = result.get("late_max_s", math.nan) * 1e3
        return metrics, notes + [f"the generator ran at most {late:.2f} ms late"], [outcome]

    def trace(self, run: Run):
        half = run.seconds / 2.0
        _, plain, _, _ = self.command(run, half)
        _, outcome, result, stats_dir = self.command(run, half, traced=True)
        stats = load_stats(stats_dir)
        run.note_absent(stats)
        metrics, present = layer_metrics(stats)
        samples = [x for s in stats for key in ("service.queue_wait_s", "service.exact_s")
                   for x in s["samples"].get(key, [])]
        covered = sum(result.get("late_s", [])) + sum(samples)
        metrics["trace.coverage"] = covered / (sum(outcome.latencies) or math.inf)
        metrics["loadgen.late_max_ms"] = result.get("late_max_s", 0.0) * 1e3
        metrics["trace.overhead_frac"] = (
            statistics.median(outcome.latencies) / statistics.median(plain.latencies) - 1.0
            if outcome.latencies and plain.latencies else 0.0
        )
        metrics.update(startup_metrics(run))
        return report_layers(metrics, present), [], [plain, outcome]


WORKLOADS = {
    "figure4": Figure(4, store=False),
    "figure6-warm-store": Figure(6, store=True),
    "serve-mix": Serve(),
    "simulate": Simulate(),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    # Byte-compile up front so no measured command pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)
    run = Run(args)
    try:
        workload = WORKLOADS[args.workload]
        metrics, notes, outcomes = (workload.trace if run.trace else workload.measure)(run)
    finally:
        run.close()

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    units = {n: u for n, (u, _) in PER_LAYER.items()} if run.trace else END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"machine: {environment()}")
    for note in notes:
        print(note)
    if run.absent:
        print("absent from the code under test (their metrics are not reported): "
              + ", ".join(sorted(run.absent)))
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for problem in [p for o in outcomes for p in o.problems][:10]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
