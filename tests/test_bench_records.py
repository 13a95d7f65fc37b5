"""Tests for bench record naming, discovery and baseline pairing.

The regression gate pairs current records with committed baselines purely
by filename (``BENCH_<name>[.quick].json``), so the naming
functions must round-trip exactly and discovery must flag — never skip —
anything it cannot parse.
"""

import json

import pytest

from repro.perf.bench import (
    compare_records,
    discover_records,
    load_baseline,
    parse_record_filename,
    record_filename,
    write_bench_json,
)


class TestRecordFilename:
    @pytest.mark.parametrize(
        "name, quick, expected",
        [
            ("figure4", False, "BENCH_figure4.json"),
            ("figure4", True, "BENCH_figure4.quick.json"),
        ],
    )
    def test_round_trip(self, name, quick, expected):
        filename = record_filename(name, quick)
        assert filename == expected
        assert parse_record_filename(filename) == (name, quick)

    @pytest.mark.parametrize(
        "filename",
        [
            "BENCH_.json",  # empty name
            "BENCH_a.b.c.d.json",  # too many markers
            "BENCH_a.batched.extra.json",  # two non-quick markers
            "BENCH_a.quick.batched.json",  # quick not last
            "BENCH_a..quick.json",  # empty marker
            "NOTBENCH_a.json",
            "BENCH_a.txt",
        ],
    )
    def test_unparseable_filenames_return_none(self, filename):
        assert parse_record_filename(filename) is None


class TestDiscoverRecords:
    def test_discovery_is_deterministic_and_flags_strays(self, tmp_path):
        for filename in (
            "BENCH_figure4.json",
            "BENCH_figure4.quick.json",
            "BENCH_bench_figure4.json",  # stale legacy twin: parses (name
            # "bench_figure4") so it pairs — and fails — loudly downstream
            "BENCH_figure4.batched.quick.json",  # retired marker: unparseable
        ):
            (tmp_path / filename).write_text("{}")
        (tmp_path / "unrelated.json").write_text("{}")  # ignored: no BENCH_ prefix
        records, unparseable = discover_records(tmp_path)
        assert [(name, quick) for name, quick, _ in records] == [
            ("bench_figure4", False),
            ("figure4", False),
            ("figure4", True),
        ]
        assert [path.name for path in unparseable] == [
            "BENCH_figure4.batched.quick.json"
        ]


class TestBaselinePairing:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))

    def test_missing_baseline_is_none_not_a_guess(self, tmp_path):
        self._write(tmp_path / "BENCH_figure4.quick.json", {"who": "quick"})
        # A full-grid record must not pair with a quick baseline.
        assert load_baseline("figure4", False, tmp_path) is None

    def test_record_with_null_variant_loads_and_compares(self, tmp_path):
        # Records committed while a variant marker existed carry
        # "variant": null; they stay valid baselines.
        baseline = {"name": "figure4", "quick": True, "variant": None,
                    "wall_time": 1.0, "calibration": 0.01}
        self._write(tmp_path / "BENCH_figure4.quick.json", baseline)
        loaded = load_baseline("figure4", True, tmp_path)
        assert loaded == baseline
        current = {"name": "figure4", "wall_time": 1.1, "calibration": 0.01}
        ok, message = compare_records(current, loaded)
        assert ok, message

    def test_write_uses_canonical_name(self, tmp_path):
        path = write_bench_json(
            {"name": "figure4", "quick": True, "x": 1},
            tmp_path,
        )
        assert path.name == "BENCH_figure4.quick.json"
        assert json.loads(path.read_text())["x"] == 1
