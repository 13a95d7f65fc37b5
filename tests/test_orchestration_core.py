"""Unit tests for orchestration building blocks: spec, journal, manifest, faults."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.orchestration import (
    CheckpointJournal,
    SweepPoint,
    SweepRunner,
    atomic_write_text,
    point_key,
    resolve_task,
)
from repro.orchestration import faults


class TestPointKey:
    def test_stable_under_kwarg_order(self):
        a = point_key("t", {"x": 1, "y": 2.5})
        b = point_key("t", {"y": 2.5, "x": 1})
        assert a == b

    def test_distinct_specs_distinct_keys(self):
        assert point_key("t", {"x": 1}) != point_key("t", {"x": 2})
        assert point_key("t", {"x": 1}) != point_key("u", {"x": 1})

    def test_sweep_point_key_matches_helper(self):
        point = SweepPoint(task="t", kwargs={"x": 1}, label="anything")
        assert point.key == point_key("t", {"x": 1})
        # the label is cosmetic: it must not change identity
        assert point.key == SweepPoint(task="t", kwargs={"x": 1}).key

    def test_schema_version_is_part_of_identity(self, monkeypatch):
        from repro.orchestration import spec

        before = point_key("t", {"x": 1})
        monkeypatch.setattr(spec, "SCHEMA_VERSION", spec.SCHEMA_VERSION + 1)
        assert point_key("t", {"x": 1}) != before

    def test_schema_bump_invalidates_stale_checkpoints(self, tmp_path, monkeypatch):
        """A journal written under one schema version must not satisfy a
        resume after the version is bumped: the stale entry's key no longer
        matches any point, so the point is recomputed instead of silently
        reusing a result produced by older solver numerics."""
        from repro.orchestration import spec

        journal = CheckpointJournal(tmp_path / "j.jsonl")
        point = SweepPoint(task="t", kwargs={"x": 1})
        journal.record({"key": point.key, "status": "ok", "value": 1.5})
        assert point.key in journal

        monkeypatch.setattr(spec, "SCHEMA_VERSION", spec.SCHEMA_VERSION + 1)
        reloaded = CheckpointJournal(tmp_path / "j.jsonl")
        assert point.key not in reloaded


class TestResolveTask:
    def test_registered_name(self):
        fn = resolve_task("demo-point")
        assert fn(x=3.0) == {"values": {"y": 9.0}}

    def test_dotted_path(self):
        assert resolve_task("math:sqrt")(9.0) == 3.0

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_task("no-such-task")
        with pytest.raises(KeyError):
            resolve_task("math:no_such_attr")


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "one\n")
        atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"

    def test_no_temp_droppings(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_dirs(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "deep")
        assert target.read_text() == "deep"


class TestCheckpointJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.record({"key": "k1", "status": "ok", "value": 1.5})
        journal.record({"key": "k2", "status": "failed"})
        reloaded = CheckpointJournal(path)
        assert len(reloaded) == 2
        assert reloaded.get("k1")["value"] == 1.5
        assert "k2" in reloaded

    def test_last_record_wins(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        journal.record({"key": "k", "status": "failed"})
        journal.record({"key": "k", "status": "ok"})
        assert journal.get("k")["status"] == "ok"
        assert len(CheckpointJournal(tmp_path / "j.jsonl")) == 1

    def test_record_appends_one_line_in_place(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.record({"key": "k1", "status": "ok", "value": 1.5})
        journal.record({"key": "k2", "status": "failed"})
        before, inode = path.read_bytes(), path.stat().st_ino
        journal.record({"key": "k3", "status": "ok"})
        after = path.read_bytes()
        assert after.startswith(before)
        assert after[len(before):] == b'{"key": "k3", "status": "ok"}\n'
        assert path.stat().st_ino == inode  # grown, not replaced

    def test_appended_duplicates_resolve_last_record_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.record({"key": "k", "status": "failed"})
        journal.record({"key": "other", "status": "ok"})
        journal.record({"key": "k", "status": "ok"})
        assert len(path.read_text().splitlines()) == 3
        reloaded = CheckpointJournal(path)
        assert len(reloaded) == 2
        assert reloaded.get("k")["status"] == "ok"

    def test_first_record_creates_missing_checkpoint_dir(self, tmp_path):
        path = tmp_path / "missing" / "deeper" / "j.jsonl"
        CheckpointJournal(path).record({"key": "k", "status": "ok"})
        assert CheckpointJournal(path).get("k")["status"] == "ok"

    def test_tolerates_torn_tail_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = json.dumps({"key": "k1", "status": "ok"})
        path.write_text(good + "\n" + '{"key": "k2", "status"')  # truncated
        journal = CheckpointJournal(path)
        assert len(journal) == 1
        assert journal.get("k1")["status"] == "ok"

    def test_reset_removes_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.record({"key": "k", "status": "ok"})
        journal.reset()
        assert not path.exists() and len(journal) == 0

    def test_record_requires_key(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointJournal(tmp_path / "j.jsonl").record({"status": "ok"})


class TestManifest:
    def test_schema_after_inline_run(self, tmp_path):
        runner = SweepRunner(
            workers=0,
            journal_path=tmp_path / "j.jsonl",
            manifest_path=tmp_path / "m.json",
            run_name="unit",
        )
        runner.run(
            [SweepPoint(task="demo-point", kwargs={"x": i}, label=f"demo/x={i}")
             for i in range(3)]
        )
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["name"] == "unit"
        assert manifest["version"]
        assert manifest["interrupted"] is None
        assert manifest["counts"]["ok"] == 3
        assert manifest["counts"]["total"] == 3
        assert manifest["counts"]["resumed"] == 0
        for point in manifest["points"]:
            assert point["status"] == "ok"
            assert point["resumed"] is False
            assert point["wall_time"] >= 0.0
            assert point["key"] and point["label"]


class TestFaults:
    def test_parse_fault_spec(self):
        spec = faults.parse_fault_spec("crash:a;hang:b; numerical:c ")
        assert spec == (("crash", "a"), ("hang", "b"), ("numerical", "c"))

    def test_parse_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            faults.parse_fault_spec("explode:a")
        with pytest.raises(ValueError):
            faults.parse_fault_spec("crash")

    def test_fault_for_matches_substring(self):
        with faults.inject_faults(crash=("x=2",), numerical=("x=4",)):
            assert faults.fault_for("demo/x=2") == "crash"
            assert faults.fault_for("demo/x=4") == "numerical"
            assert faults.fault_for("demo/x=1") is None

    def test_inject_faults_restores_environment(self):
        os.environ.pop(faults.ENV_POINTS, None)
        with faults.inject_faults(hang=("a",), abort_after=3, hang_seconds=5):
            assert os.environ[faults.ENV_POINTS] == "hang:a"
            assert faults.abort_after() == 3
            assert faults.hang_seconds() == 5.0
        assert faults.ENV_POINTS not in os.environ
        assert faults.abort_after() is None

    def test_numerical_trigger_carries_context(self):
        from repro.robustness import NumericalError

        with faults.inject_faults(numerical=("bad",)):
            with pytest.raises(NumericalError) as excinfo:
                faults.maybe_trigger("point/bad/one")
            assert excinfo.value.context.get("injected") is True


class TestBenchmarkSaveResult:
    """Satellite: benchmarks/_util.save_result must write atomically."""

    @staticmethod
    def _load_util():
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "_util.py"
        spec = importlib.util.spec_from_file_location("bench_util", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_save_result_atomic(self, tmp_path, monkeypatch, capsys):
        util = self._load_util()
        monkeypatch.setattr(util, "RESULTS_DIR", tmp_path)
        util.save_result("table", "row 1\nrow 2")
        assert (tmp_path / "table.txt").read_text() == "row 1\nrow 2\n"
        # overwrite goes through the same atomic path, no temp droppings
        util.save_result("table", "row 3")
        assert (tmp_path / "table.txt").read_text() == "row 3\n"
        assert [p.name for p in tmp_path.iterdir()] == ["table.txt"]
        assert "[saved to results/table.txt]" in capsys.readouterr().out
