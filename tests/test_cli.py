"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_analyze(self, capsys):
        assert main(["analyze", "--rho-s", "1.0", "--rho-l", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "CS-CQ" in out and "unstable" in out  # Dedicated at rho_s=1

    def test_analyze_ph_shorts(self, capsys):
        assert main(
            ["analyze", "--rho-s", "0.8", "--rho-l", "0.4", "--short-scv", "2.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase-type generalizations" in out
        assert "CS-ID" in out and "CS-CQ" in out

    def test_simulate(self, capsys):
        code = main(
            [
                "simulate", "--rho-s", "0.5", "--rho-l", "0.3",
                "--policy", "cs-cq", "--jobs", "5000", "--warmup", "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "E[T_short]" in out

    def test_stability(self, capsys):
        assert main(["stability", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "1.6180" in out  # golden ratio at rho_l = 0

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok") == 6

    def test_figure3(self, capsys):
        assert main(["figure", "3"]) == 0
        out = capsys.readouterr().out
        assert "Stability condition" in out

    def test_figure4_runs_in_process_by_default(self, tmp_path, capsys, monkeypatch):
        args = ["figure", "4", "--grid", "0.3,0.9", "--checkpoint-dir", str(tmp_path)]
        assert main(args + ["--name", "default"]) == 0
        assert main(args + ["--name", "timed", "--timeout", "30"]) == 0
        monkeypatch.setenv("REPRO_FAULT_POINTS", "numerical:no-such-point")
        assert main(args + ["--name", "faulted"]) == 0
        workers = {
            name: json.loads((tmp_path / f"{name}.manifest.json").read_text())["workers"]
            for name in ("default", "timed", "faulted")
        }
        # Timeouts and injected faults need a killable worker: they imply one.
        assert workers == {"default": 0, "timed": 1, "faulted": 1}

    def test_figure_rejects_inline_timeout(self, tmp_path, capsys):
        code = main(
            ["figure", "4", "--grid", "0.3,0.9", "--workers", "0", "--timeout", "5",
             "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 2
        assert "--timeout" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["nope"])
