"""Crash-recovery acceptance tests for the orchestration layer.

Every scenario here uses :mod:`repro.orchestration.faults` to inject the
failure deterministically — no manual steps:

* a point whose worker *crashes* is classified ``failed`` while every
  sibling point completes;
* a point that *hangs* is reaped by the per-point timeout while sibling
  points complete;
* a sweep killed mid-run (injected abort, and a real SIGTERM against a
  driver process) resumes from the journal and produces output identical
  to an uninterrupted run, with the manifest marking the resumed points.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.experiments.base import format_panel
from repro.experiments.figures import figure4_panels
from repro.orchestration import (
    InjectedAbortError,
    SweepPoint,
    SweepRunner,
    inject_faults,
)


def _demo_points(n, **extra):
    return [
        SweepPoint(task="demo-point", kwargs={"x": i, **extra}, label=f"demo/x={i}")
        for i in range(n)
    ]


class TestCrashIsolation:
    def test_worker_crash_costs_one_point(self, tmp_path):
        runner = SweepRunner(
            workers=2,
            journal_path=tmp_path / "j.jsonl",
            manifest_path=tmp_path / "m.json",
        )
        with inject_faults(crash=("x=2",)):
            outcomes = runner.run(_demo_points(5))
        assert [o.status for o in outcomes] == ["ok", "ok", "failed", "ok", "ok"]
        crashed = outcomes[2]
        assert crashed.error["type"] == "WorkerCrashed"
        assert crashed.value is None
        # siblings are intact and the crash is journaled like any outcome
        assert [o.value["values"]["y"] for o in outcomes if o.ok] == [0, 1, 9, 16]
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["counts"] == {
            "ok": 4, "degraded": 0, "suspect": 0, "failed": 1, "timeout": 0,
            "resumed": 0, "total": 5,
        }

    def test_slot_recovers_after_crash(self):
        # one worker slot: the point after the crash must reuse a fresh
        # process transparently
        runner = SweepRunner(workers=1)
        with inject_faults(crash=("x=0",)):
            outcomes = runner.run(_demo_points(3))
        assert [o.status for o in outcomes] == ["failed", "ok", "ok"]


class TestHangReaping:
    def test_hang_times_out_without_losing_siblings(self, tmp_path):
        runner = SweepRunner(
            workers=2,
            timeout=1.0,
            journal_path=tmp_path / "j.jsonl",
            manifest_path=tmp_path / "m.json",
        )
        start = time.monotonic()
        # hang_seconds far beyond the timeout: only the reaper can end it
        with inject_faults(hang=("x=1",), hang_seconds=60):
            outcomes = runner.run(_demo_points(5))
        elapsed = time.monotonic() - start
        assert [o.status for o in outcomes] == ["ok", "timeout", "ok", "ok", "ok"]
        hung = outcomes[1]
        assert hung.error["type"] == "PointTimeout"
        assert hung.error["context"]["timeout"] == 1.0
        # reaped promptly (timeout + kill grace), nowhere near the 60s hang
        assert elapsed < 20.0
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["counts"]["timeout"] == 1
        assert manifest["counts"]["ok"] == 4


class TestAbortAndResume:
    def test_resumed_figure_panels_identical(self, tmp_path):
        grid = [0.3, 0.8, 1.4]
        baseline = "\n\n".join(
            format_panel(p) for p in figure4_panels(rho_s_values=grid)
        )

        journal_path = tmp_path / "j.jsonl"
        manifest_path = tmp_path / "m.json"

        def make_runner(resume):
            return SweepRunner(
                workers=2,
                journal_path=journal_path,
                manifest_path=manifest_path,
                resume=resume,
                run_name="figure4",
            )

        # kill the sweep after 4 completed points (crash mid-run)
        with inject_faults(abort_after=4):
            with pytest.raises(InjectedAbortError):
                figure4_panels(rho_s_values=grid, runner=make_runner(resume=False))
        interrupted = json.loads(manifest_path.read_text())
        assert interrupted["interrupted"] == "injected-abort"
        journaled = len(journal_path.read_text().splitlines())
        assert 0 < journaled < 6 * len(grid)  # partial progress survived

        # resume: completes the sweep and reproduces the baseline exactly
        panels = figure4_panels(rho_s_values=grid, runner=make_runner(resume=True))
        resumed_text = "\n\n".join(format_panel(p) for p in panels)
        assert resumed_text == baseline

        manifest = json.loads(manifest_path.read_text())
        assert manifest["interrupted"] is None
        assert manifest["counts"]["resumed"] == journaled
        assert manifest["counts"]["total"] == 6 * len(grid)
        assert manifest["counts"]["failed"] == 0
        resumed_marks = [p["resumed"] for p in manifest["points"]]
        assert sum(resumed_marks) == journaled


_SIGTERM_DRIVER = textwrap.dedent(
    """
    import sys
    from repro.orchestration import SweepPoint, SweepRunner

    tmp, workers = sys.argv[1], int(sys.argv[2])
    points = [
        SweepPoint(task="demo-point", kwargs={"x": i, "sleep": 0.4},
                   label=f"demo/x={i}")
        for i in range(8)
    ]
    runner = SweepRunner(
        workers=workers,
        journal_path=f"{tmp}/j.jsonl",
        manifest_path=f"{tmp}/m.json",
        run_name="sigterm-test",
    )
    runner.run(points)
    """
)


_LONG_POINT_DRIVER = textwrap.dedent(
    """
    import sys
    from repro.orchestration import SweepPoint, SweepRunner

    tmp = sys.argv[1]
    points = [
        SweepPoint(task="demo-point", kwargs={"x": i, "sleep": 0.1 if i == 0 else 120},
                   label=f"demo/x={i}")
        for i in range(3)
    ]
    runner = SweepRunner(
        workers=0,
        journal_path=f"{tmp}/j.jsonl",
        manifest_path=f"{tmp}/m.json",
        run_name="sigterm-twice",
    )
    runner.run(points)
    """
)


def _driver_env():
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _wait_for_journal(journal_path):
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if journal_path.exists() and journal_path.read_text().strip():
            return
        time.sleep(0.05)
    pytest.fail("driver never journaled a point")


class TestSigterm:
    def test_sigterm_flushes_journal_and_resumes(self, tmp_path):
        self._sigterm_and_resume(tmp_path, workers=1)

    def test_inline_sigterm_flushes_journal_and_resumes(self, tmp_path):
        # In-process points get the same flag handlers, checked between
        # points: the driver finishes the point in hand, then exits 143.
        self._sigterm_and_resume(tmp_path, workers=0)

    def test_second_sigterm_stops_a_long_inline_point(self, tmp_path):
        # The first signal waits for the point in hand; a second one must
        # not, or a stuck in-process point could only be SIGKILLed.
        journal_path = tmp_path / "j.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", _LONG_POINT_DRIVER, str(tmp_path)],
            env=_driver_env(),
        )
        try:
            _wait_for_journal(journal_path)
            time.sleep(0.5)  # the 120 s point is now running
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.5)
            assert proc.poll() is None  # first signal deferred to the next gap
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert returncode == 128 + signal.SIGTERM
        assert len(journal_path.read_text().splitlines()) == 1
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["interrupted"] == "SIGTERM"

    def test_inline_run_restores_signal_handlers(self, tmp_path):
        # Called once per figure row: each call must hand the process's
        # SIGINT/SIGTERM handlers back, or Ctrl-C is ignored afterwards.
        before = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
        runner = SweepRunner(
            workers=0,
            journal_path=tmp_path / "j.jsonl",
            manifest_path=tmp_path / "m.json",
        )
        runner.run(_demo_points(2))
        runner.run(_demo_points(3))
        after = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
        assert after == before

    @staticmethod
    def _sigterm_and_resume(tmp_path, workers):
        journal_path = tmp_path / "j.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", _SIGTERM_DRIVER, str(tmp_path), str(workers)],
            env=_driver_env(),
        )
        try:
            # wait until at least one point is journaled, then SIGTERM
            _wait_for_journal(journal_path)
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert returncode == 128 + signal.SIGTERM  # conventional 143

        flushed = [
            json.loads(line) for line in journal_path.read_text().splitlines()
        ]
        assert 0 < len(flushed) < 8  # lost at most the in-flight points
        assert all(r["status"] == "ok" for r in flushed)
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["interrupted"] == "SIGTERM"

        # resume completes the remaining points with correct values
        points = [
            SweepPoint(
                task="demo-point",
                kwargs={"x": i, "sleep": 0.4},
                label=f"demo/x={i}",
            )
            for i in range(8)
        ]
        runner = SweepRunner(
            workers=0,
            journal_path=journal_path,
            manifest_path=tmp_path / "m.json",
            resume=True,
            run_name="sigterm-test",
        )
        outcomes = runner.run(points)
        assert [o.value["values"]["y"] for o in outcomes] == [i * i for i in range(8)]
        assert sum(o.resumed for o in outcomes) == len(flushed)
