"""Journal cost: one fsync per run() call, trimmed lines for trusted points."""

import json
import os
import warnings
from dataclasses import asdict

import pytest

from repro.experiments.figures import figure4_panels
from repro.orchestration import SweepPoint, SweepRunner, inject_faults, register_task
from repro.orchestration.faults import InjectedAbortError
from repro.robustness import ContractViolationWarning, SolverDiagnostics
from repro.workloads import EXPONENTIAL_CASES

#: Keys of one policy's ladder summary (manifest ``ladder`` rows and the
#: diagnostics of a trimmed journal line).
SUMMARY_KEYS = {
    "method", "degraded", "rungs_tried", "iterations", "trust", "error_bound"
}


def _diagnostics(trust):
    return SolverDiagnostics(
        method="logarithmic-reduction",
        iterations=7,
        error_bound=1e-14,
        trust=trust,
    ).as_dict()


@register_task("test-trust-point")
def _trust_point(x, trust, contract_violation=False):
    if contract_violation:
        warnings.warn(ContractViolationWarning("contract 'demo' violated"))
    return {
        "values": {"y": x},
        "diagnostics": {
            "CS-CQ": _diagnostics(trust),
            "CS-ID": _diagnostics("trusted"),
        },
    }


def _journal_lines(path):
    return {
        record["label"]: record
        for record in map(json.loads, path.read_text().splitlines())
    }


def _response_point(rho_s):
    return SweepPoint(
        task="response-point",
        kwargs={
            "case": asdict(EXPONENTIAL_CASES[0]),
            "rho_s": rho_s,
            "rho_l": 0.5,
            "job_class": "short",
        },
        label=f"a/short/rho_s={rho_s}",
    )


class TestOneSyncPerRun:
    def test_inline_run_fsyncs_the_journal_once(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "j.jsonl"
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        runner = SweepRunner(
            workers=0, journal_path=journal_path, manifest_path=tmp_path / "m.json"
        )
        points = [
            SweepPoint(task="demo-point", kwargs={"x": i}, label=f"demo/x={i}")
            for i in range(6)
        ]
        outcomes = runner.run(points)
        assert [o.status for o in outcomes] == ["ok"] * 6
        assert len(journal_path.read_text().splitlines()) == 6
        assert synced.count(journal_path.stat().st_ino) == 1

    def test_run_with_nothing_new_does_not_sync(self, tmp_path, monkeypatch):
        journal_path = tmp_path / "j.jsonl"
        points = [SweepPoint(task="demo-point", kwargs={"x": 1}, label="demo/x=1")]
        SweepRunner(workers=0, journal_path=journal_path).run(points)
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        runner = SweepRunner(workers=0, journal_path=journal_path, resume=True)
        (outcome,) = runner.run(points)
        assert outcome.resumed
        assert synced == []


class TestTrimmedLines:
    def test_trusted_ok_point_journals_its_ladder_summary(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        runner = SweepRunner(
            workers=0, journal_path=journal_path, manifest_path=tmp_path / "m.json"
        )
        (outcome,) = runner.run([_response_point(0.3)])
        assert outcome.status == "ok"
        assert "rungs" in outcome.diagnostics["CS-Central-Q"]  # full in memory
        (line,) = _journal_lines(journal_path).values()
        diagnostics = line["diagnostics"]
        assert set(diagnostics) == set(outcome.diagnostics)
        for row in diagnostics.values():
            assert set(row) == SUMMARY_KEYS
            assert row["trust"] == "trusted"
        assert diagnostics["CS-Central-Q"]["iterations"] > 0
        (entry,) = json.loads((tmp_path / "m.json").read_text())["points"]
        assert entry["ladder"] == diagnostics

    def test_suspect_and_not_trusted_points_keep_full_diagnostics(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        points = [
            SweepPoint(task="test-trust-point", kwargs={"x": 0, "trust": "trusted"},
                       label="trusted"),
            SweepPoint(task="test-trust-point", kwargs={"x": 1, "trust": "suspect"},
                       label="not-trusted"),
            SweepPoint(
                task="test-trust-point",
                kwargs={"x": 2, "trust": "trusted", "contract_violation": True},
                label="contract-suspect",
            ),
        ]
        outcomes = SweepRunner(workers=0, journal_path=journal_path).run(points)
        assert [o.status for o in outcomes] == ["ok", "ok", "suspect"]
        lines = _journal_lines(journal_path)
        assert lines["trusted"]["diagnostics"]["CS-CQ"] == {
            "method": "logarithmic-reduction",
            "degraded": False,
            "rungs_tried": 0,
            "iterations": 7,
            "trust": "trusted",
            "error_bound": 1e-14,
        }
        for label, outcome in zip(("not-trusted", "contract-suspect"), outcomes[1:]):
            assert lines[label]["diagnostics"] == outcome.diagnostics
            assert "rungs" in lines[label]["diagnostics"]["CS-CQ"]

    def test_resume_from_trimmed_lines_keeps_the_manifest_ladder(self, tmp_path):
        grid = [0.3, 1.2]

        def ladders(directory, resume=False, abort_after=None):
            runner = SweepRunner(
                workers=0,
                journal_path=directory / "j.jsonl",
                manifest_path=directory / "m.json",
                resume=resume,
            )
            if abort_after is None:
                figure4_panels(rho_s_values=grid, runner=runner)
            else:
                with inject_faults(abort_after=abort_after):
                    with pytest.raises(InjectedAbortError):
                        figure4_panels(rho_s_values=grid, runner=runner)
            manifest = json.loads((directory / "m.json").read_text())
            return manifest, {p["key"]: p.get("ladder") for p in manifest["points"]}

        _, uninterrupted = ladders(tmp_path / "full")
        resumed_dir = tmp_path / "resumed"
        ladders(resumed_dir, abort_after=5)
        journaled = _journal_lines(resumed_dir / "j.jsonl").values()
        assert len(journaled) == 5
        trimmed = [
            row
            for record in journaled
            for row in (record["diagnostics"] or {}).values()
        ]
        assert trimmed and all(set(row) == SUMMARY_KEYS for row in trimmed)

        manifest, resumed = ladders(resumed_dir, resume=True)
        assert manifest["counts"]["resumed"] == 5
        assert resumed == uninterrupted
        assert all(
            row["iterations"] is not None
            for ladder in resumed.values()
            for policy, row in (ladder or {}).items()
            if policy == "CS-Central-Q"
        )
