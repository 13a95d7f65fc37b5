"""Tests for trace-driven simulation (replay mode)."""

import pytest

from repro.simulation import JobClass, simulate_trace
from repro.workloads import TraceSpec, generate_trace


class TestReplayBasics:
    def test_single_job(self):
        result = simulate_trace(
            "dedicated", [(0.0, JobClass.SHORT, 2.5)], warmup_jobs=0
        )
        assert result.mean_response_short == pytest.approx(2.5)
        assert result.n_measured_short == 1
        assert result.n_measured_long == 0

    def test_two_jobs_fcfs_same_host(self):
        trace = [
            (0.0, JobClass.SHORT, 2.0),
            (1.0, JobClass.SHORT, 2.0),
        ]
        result = simulate_trace("dedicated", trace)
        # Job 1: response 2; job 2: waits 1, response 3.
        assert result.mean_response_short == pytest.approx(2.5)

    def test_cycle_stealing_uses_idle_long_host(self):
        trace = [
            (0.0, JobClass.SHORT, 2.0),
            (0.5, JobClass.SHORT, 2.0),  # long host idle -> response 2.0
        ]
        dedicated = simulate_trace("dedicated", trace)
        cs_id = simulate_trace("cs-id", trace)
        assert cs_id.mean_response_short < dedicated.mean_response_short
        assert cs_id.mean_response_short == pytest.approx(2.0)

    def test_cs_cq_renaming_on_trace(self):
        # Long arrives while both hosts serve shorts: waits for the first
        # of the two to finish (renaming), not for "its" host.
        trace = [
            (0.0, JobClass.SHORT, 4.0),
            (0.0, JobClass.SHORT, 1.0),
            (0.5, JobClass.LONG, 1.0),
        ]
        result = simulate_trace("cs-cq", trace)
        # Short #2 finishes at t=1.0; long runs 1.0-2.0: response 1.5.
        assert result.mean_response_long == pytest.approx(1.5)

    def test_warmup_discards_jobs(self):
        trace = [(float(i), JobClass.SHORT, 0.5) for i in range(10)]
        result = simulate_trace("mgk", trace, warmup_jobs=6)
        assert result.n_measured_short == 4

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate_trace("dedicated", [])

    def test_decreasing_times_rejected(self):
        trace = [(1.0, JobClass.SHORT, 1.0), (0.5, JobClass.SHORT, 1.0)]
        with pytest.raises(ValueError):
            simulate_trace("dedicated", trace)


class TestReplaySynthetic:
    def test_replay_matches_poisson_statistics(self, rng):
        """Replaying a Poisson-generated trace through the same policy
        should agree with the params-driven simulation in distribution."""
        spec = TraceSpec(
            arrival_rate=1.5, pareto_alpha=2.5, min_size=0.1, max_size=5.0, cutoff=1.0
        )
        trace = generate_trace(spec, 60_000, rng)
        replay = simulate_trace("cs-cq", trace, warmup_jobs=5_000)
        assert replay.n_measured_short + replay.n_measured_long == 55_000
        assert replay.mean_response_short > 0
        assert replay.mean_response_long > 0

    def test_deterministic_replay(self, rng):
        spec = TraceSpec(arrival_rate=2.0)
        trace = generate_trace(spec, 5_000, rng)
        r1 = simulate_trace("cs-id", trace)
        r2 = simulate_trace("cs-id", trace)
        assert r1.mean_response_short == r2.mean_response_short
        assert r1.sim_time == r2.sim_time

    def test_iter_jobs_round_trip(self, rng):
        trace = generate_trace(TraceSpec(), 100, rng)
        triples = list(trace.iter_jobs())
        assert len(triples) == 100
        times = [t for t, _, _ in triples]
        assert times == sorted(times)
        assert all(s > 0 for _, _, s in triples)
