"""Telemetry end to end: bit-identity, cross-process merge, traced CLI.

The guarantees pinned here are the PR's acceptance criteria:

* tracing never changes results — solver outputs are bit-identical with
  and without ``REPRO_TRACE`` (the spans only observe);
* worker-subprocess metrics merge into the driver registry and the run
  manifest;
* a traced figure sweep exports a well-formed ``TRACE_*.jsonl`` that the
  ``trace`` CLI renders, checks, and diffs.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.contracts import suspects_by_cost, write_check_report
from repro.core import CsCqAnalysis, SystemParameters
from repro.markov.qbd import solve_r_matrix_with_diagnostics
from repro.orchestration import SweepPoint, SweepRunner
from repro.telemetry import (
    TRACE_ENV_VAR,
    load_trace,
    registry,
    trace_scope,
    tracing_enabled,
)


def _blocks():
    rng = np.random.default_rng(7)
    a0 = np.abs(rng.standard_normal((3, 3))) * 0.2
    a2 = np.abs(rng.standard_normal((3, 3))) * 0.6
    a1 = -np.diag((a0 + a2).sum(axis=1) + 0.5)
    return a0, a1, a2


class TestDisabledModeIdentity:
    def test_r_matrix_bit_identical_with_and_without_tracing(self):
        a0, a1, a2 = _blocks()
        plain, plain_diag = solve_r_matrix_with_diagnostics(a0, a1, a2)
        with trace_scope() as collector:
            traced, traced_diag = solve_r_matrix_with_diagnostics(a0, a1, a2)
        assert np.array_equal(plain, traced)
        assert plain_diag.method == traced_diag.method
        assert plain_diag.iterations == traced_diag.iterations
        assert plain_diag.residual == traced_diag.residual
        names = {r["name"] for r in collector.records()}
        assert "qbd.r_matrix" in names
        assert any(name.startswith("solver.rung.") for name in names)

    def test_analysis_bit_identical_and_spans_cover_the_pipeline(self):
        params = SystemParameters.from_loads(rho_s=0.8, rho_l=0.5)
        plain = CsCqAnalysis(params).mean_response_time_short()
        with trace_scope() as collector:
            traced = CsCqAnalysis(params).mean_response_time_short()
        assert plain == traced  # bit-identical, not approximately equal
        names = {r["name"] for r in collector.records()}
        for expected in (
            "analysis.cs_cq",
            "qbd.solve",
            "qbd.r_matrix",
            "busy.nplus1.moments",
            "fit.phase_type",
        ):
            assert expected in names, f"missing span {expected} in {sorted(names)}"

    def test_rung_span_reports_iterations_and_convergence(self):
        a0, a1, a2 = _blocks()
        with trace_scope() as collector:
            _, diagnostics = solve_r_matrix_with_diagnostics(a0, a1, a2)
        rungs = [
            r for r in collector.records() if r["name"].startswith("solver.rung.")
        ]
        assert rungs
        accepted = [r for r in rungs if r["attrs"].get("accepted")]
        assert len(accepted) == 1
        # A builtin bool, not a numpy scalar: the renderer's flag check is
        # ``attrs.get("accepted") is False``, which np.False_ would dodge.
        assert accepted[0]["attrs"]["accepted"] is True
        assert accepted[0]["attrs"]["iterations"] == diagnostics.iterations
        # The per-iteration convergence trace lands on the accepted rung's
        # span and records one step size per iteration, the last included.
        convergence = accepted[0]["attrs"]["convergence"]
        assert convergence["iterations"] == diagnostics.iterations
        assert convergence["sampled_iterations"][-1] == diagnostics.iterations
        assert len(convergence["residuals"]) == len(convergence["sampled_iterations"])
        # Satellite: per-rung iteration counts surface on the diagnostics.
        assert diagnostics.rung_iterations == {
            attempt.name: attempt.iterations for attempt in diagnostics.rungs
        }
        assert "rung_iterations" in diagnostics.as_dict()


class TestCrossProcessMetrics:
    def test_worker_metrics_merge_into_driver_and_manifest(self, tmp_path):
        registry().reset()
        try:
            manifest_path = tmp_path / "m.json"
            runner = SweepRunner(
                workers=1, manifest_path=manifest_path, run_name="telemetry-merge"
            )
            points = [
                SweepPoint(
                    task="response-point",
                    kwargs={
                        "case": {
                            "name": "a",
                            "mean_short": 1.0,
                            "mean_long": 1.0,
                            "short_scv": 1.0,
                            "long_scv": 1.0,
                        },
                        "rho_s": rho_s,
                        "rho_l": 0.5,
                        "job_class": "short",
                    },
                    label=f"merge/{rho_s}",
                )
                for rho_s in (0.3, 0.6)
            ]
            outcomes = runner.run(points)
            assert all(o.ok for o in outcomes)
            # Worker subprocess counters landed in the driver registry...
            assert registry().counter("qbd.solves") >= 2.0
            # ...and in the run manifest.
            manifest = json.loads(manifest_path.read_text())
            counters = manifest["metrics"]["counters"]
            assert counters["qbd.solves"] >= 2.0
            assert any(name.startswith("cache.") for name in counters)
            assert "qbd.solve.seconds" in manifest["metrics"]["histograms"]
        finally:
            registry().reset()


class TestTracedCli:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One tiny traced figure-4 sweep shared by the CLI tests."""
        ckpt = tmp_path_factory.mktemp("trace-cli")
        code = main(
            [
                "figure",
                "4",
                "--workers",
                "1",
                "--grid",
                "0.3",
                "--trace",
                "--checkpoint-dir",
                str(ckpt),
                "--name",
                "smoke",
            ]
        )
        assert code == 0
        return ckpt / "TRACE_smoke.jsonl"

    def test_trace_file_is_exported_and_well_formed(self, traced_run):
        assert traced_run.exists()
        header, records = load_trace(traced_run)
        assert header["format"] == "repro-trace-v1"
        names = {r["name"] for r in records}
        assert "cli.figure" in names
        assert "orchestration.sweep" in names
        assert "orchestration.point" in names  # adopted worker envelopes
        assert "orchestration.task" in names  # worker-side spans, rebased
        assert "qbd.r_matrix" in names  # deep solver spans crossed the boundary

    def test_trace_render_cli(self, traced_run, capsys):
        assert main(["trace", str(traced_run), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "cli.figure" in out
        assert "top 3 spans by self-time" in out
        assert "instrumented coverage" in out

    def test_trace_check_cli_passes_on_real_trace(self, traced_run, capsys):
        assert main(["trace", str(traced_run), "--check"]) == 0
        assert "no integrity problems" in capsys.readouterr().out

    def test_trace_check_cli_fails_on_corrupt_trace(self, traced_run, tmp_path, capsys):
        header, records = load_trace(traced_run)
        records[0] = dict(records[0], end=None)  # forge an unclosed span
        bad = tmp_path / "TRACE_bad.jsonl"
        bad.write_text(
            "\n".join(json.dumps(r) for r in [header] + records) + "\n"
        )
        assert main(["trace", str(bad), "--check"]) == 1
        assert "never closed" in capsys.readouterr().out

    def test_trace_diff_cli(self, traced_run, capsys):
        assert main(["trace", str(traced_run), "--diff", str(traced_run)]) == 0
        out = capsys.readouterr().out
        assert "total self-time" in out
        assert "1.00x" in out  # a trace diffed against itself

    def test_traced_stdout_matches_untraced(self, tmp_path, capsys):
        """--trace must not perturb the figure tables (stderr-only chatter)."""
        argv = ["figure", "3", "--grid", "0.2,0.5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace", "--checkpoint-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain
        assert (tmp_path / "TRACE_figure3.jsonl").exists()

    def test_trace_flag_does_not_leak_into_later_calls(
        self, traced_run, tmp_path, capsys, monkeypatch
    ):
        """A --trace run must restore state: later in-process main() calls
        (tests, notebooks) stay untraced and write no stray TRACE files."""
        import os

        assert traced_run.exists()  # a --trace run already happened
        assert not tracing_enabled()
        assert TRACE_ENV_VAR not in os.environ
        monkeypatch.chdir(tmp_path)  # any stray results/ would land here
        assert main(["figure", "3", "--grid", "0.2"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "results").exists()


class TestCheckReportCost:
    def test_wall_time_threaded_and_suspects_sorted(self, tmp_path):
        verdicts = [
            {"label": "cheap", "classification": "suspect", "wall_time_s": 0.5},
            {"label": "fine", "classification": "agree", "wall_time_s": 9.0},
            {"label": "dear", "classification": "inconclusive", "wall_time_s": 7.0},
            {"label": "legacy", "classification": "suspect", "wall_time": 2.0},
        ]
        path = write_check_report(tmp_path, "cost", verdicts)
        report = json.loads(path.read_text())
        assert report["version"] == 2
        # Every point carries wall_time_s (legacy wall_time is promoted).
        assert [p["wall_time_s"] for p in report["points"]] == [0.5, 9.0, 7.0, 2.0]
        # Suspect list excludes agreeing points and sorts by cost, descending.
        assert [s["label"] for s in report["suspects"]] == ["dear", "legacy", "cheap"]
        assert suspects_by_cost(report["points"])[0]["label"] == "dear"
