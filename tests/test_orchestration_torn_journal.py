"""CheckpointJournal torn-tail hardening: loud skips, telemetry, resume."""

import json

import pytest

from repro.orchestration import CheckpointJournal, SweepPoint, SweepRunner
from repro.orchestration.spec import point_key
from repro.robustness import CorruptJournalWarning
from repro.telemetry import registry


def _write_journal(path, records, tail=""):
    lines = [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n" + tail)


class TestTornTail:
    def test_torn_tail_skipped_with_warning_and_counter(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = [
            {"key": "k1", "status": "ok", "value": 1},
            {"key": "k2", "status": "ok", "value": 2},
        ]
        _write_journal(path, good, tail='{"key": "k3", "status": "o')  # torn
        registry().reset()
        with pytest.warns(CorruptJournalWarning, match=r"1 torn/corrupt line"):
            journal = CheckpointJournal(path)
        assert len(journal) == 2
        assert journal.torn_lines == 1
        assert "k1" in journal and "k2" in journal and "k3" not in journal
        assert registry().counter("checkpoint.torn_lines") == 1

    def test_warning_names_file_and_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write_journal(path, [{"key": "k1"}], tail="{garbage")
        with pytest.warns(CorruptJournalWarning) as caught:
            CheckpointJournal(path)
        message = str(caught[0].message)
        assert "journal.jsonl" in message
        assert "line 2" in message

    def test_multiple_corrupt_lines_all_reported(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"key": "a"}\nnot json\n{"key": "b"}\n{also bad\n')
        registry().reset()
        with pytest.warns(CorruptJournalWarning, match=r"2 torn/corrupt"):
            journal = CheckpointJournal(path)
        assert journal.torn_lines == 2
        assert len(journal) == 2
        assert registry().counter("checkpoint.torn_lines") == 2

    def test_clean_journal_warns_nothing(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write_journal(path, [{"key": "a"}])
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            journal = CheckpointJournal(path)
        assert journal.torn_lines == 0

    def test_flush_rewrites_a_clean_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        _write_journal(path, [{"key": "a"}], tail="{torn")
        with pytest.warns(CorruptJournalWarning):
            journal = CheckpointJournal(path)
        journal.flush()
        reloaded = CheckpointJournal(path)  # must not warn (checked below)
        assert reloaded.torn_lines == 0
        assert len(reloaded) == 1

    def test_undecodable_line_skipped_loudly(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b'{"key": "a"}\n\xff\xfe\x00garbage\n{"key": "b"}\n')
        registry().reset()
        with pytest.warns(CorruptJournalWarning, match=r"line 2\b"):
            journal = CheckpointJournal(path)
        assert journal.torn_lines == 1
        assert "a" in journal and "b" in journal
        assert registry().counter("checkpoint.torn_lines") == 1
        journal.record({"key": "c"})  # compacts the bad line away
        assert b"\xff" not in path.read_bytes()


class TestRecordAfterTornLoad:
    """The first record after a torn load compacts instead of appending."""

    @staticmethod
    def _reload_clean(path):
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            return CheckpointJournal(path)

    def test_record_after_torn_tail_is_not_glued_on(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = [{"key": "k1", "value": 1}, {"key": "k2", "value": 2}]
        _write_journal(path, good, tail='{"key": "k3", "status": "o')  # no "\n"
        with pytest.warns(CorruptJournalWarning):
            journal = CheckpointJournal(path)
        journal.record({"key": "k4", "value": 4})
        reloaded = self._reload_clean(path)
        assert reloaded.torn_lines == 0
        assert sorted(r["key"] for r in reloaded) == ["k1", "k2", "k4"]
        assert reloaded.get("k1")["value"] == 1

    def test_missing_final_newline_is_compacted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"key": "a"}')  # a complete record, but no newline
        journal = self._reload_clean(path)
        journal.record({"key": "b"})
        journal.record({"key": "c"})  # back to appending
        reloaded = self._reload_clean(path)
        assert sorted(r["key"] for r in reloaded) == ["a", "b", "c"]
        assert len(path.read_text().splitlines()) == 3

    def test_failed_append_compacts_on_next_record(self, tmp_path, monkeypatch):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record({"key": "a"})

        class FullDisk:
            """A file handle whose write lands half the line, then fails."""

            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, data):
                self._handle.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")

        def full_disk_open(file, mode="r", *args, **kwargs):
            return FullDisk(open(file, mode, *args, **kwargs))

        monkeypatch.setattr(
            "repro.orchestration.checkpoint.open", full_disk_open, raising=False
        )
        with pytest.raises(OSError):
            journal.record({"key": "b"})
        monkeypatch.undo()
        inode = path.stat().st_ino
        journal.record({"key": "c"})
        assert path.stat().st_ino != inode  # rewritten, not appended to
        reloaded = self._reload_clean(path)
        assert sorted(r["key"] for r in reloaded) == ["a", "b", "c"]

    def test_failed_sync_compacts_on_next_record(self, tmp_path, monkeypatch):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record({"key": "a"})

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.orchestration.checkpoint.os.fsync", full_disk)
        with pytest.raises(OSError):
            journal.sync()
        monkeypatch.undo()
        inode = path.stat().st_ino
        journal.record({"key": "b"})
        assert path.stat().st_ino != inode  # rewritten, not appended to
        reloaded = self._reload_clean(path)
        assert sorted(r["key"] for r in reloaded) == ["a", "b"]


class TestResumeAcrossTornJournal:
    def test_resume_recomputes_only_the_torn_point(self, tmp_path):
        """End to end: a journal with a torn tail resumes cleanly, keeping
        the intact record and recomputing the torn one."""
        journal_path = tmp_path / "journal.jsonl"
        points = [
            SweepPoint(task="demo-point", kwargs={"x": i}, label=f"t/x={i}")
            for i in range(2)
        ]
        first = SweepRunner(workers=0, journal_path=journal_path)
        outcomes = first.run(points)
        assert [o.status for o in outcomes] == ["ok", "ok"]

        # Tear the second point's line mid-record, as a crash would.
        lines = journal_path.read_text().splitlines()
        key1 = point_key(points[1].task, points[1].kwargs)
        torn = [
            line if key1 not in line else line[: len(line) // 2]
            for line in lines
        ]
        journal_path.write_text("\n".join(torn) + "\n")

        with pytest.warns(CorruptJournalWarning):
            second = SweepRunner(workers=0, journal_path=journal_path, resume=True)
        resumed = second.run(points)
        assert [o.status for o in resumed] == ["ok", "ok"]
        assert resumed[0].resumed and not resumed[1].resumed
