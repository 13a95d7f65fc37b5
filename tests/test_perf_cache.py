"""The sweep cache (repro.perf) and its correctness-transparency contract.

The load-bearing property: caching must be *bit-transparent*.  A figure
sweep computed with the sweep cache active must equal, float for float,
the same sweep computed with caching disabled — a cache hit returns the
identical object the miss path would have produced, never a rounded or
re-derived stand-in.  The property tests below pin this across the
figure-4/5/6 parameter grids (satellite S4).
"""

import contextlib

import numpy as np
import pytest

from repro.core import CsCqAnalysis, SystemParameters
from repro.experiments import figures
from repro.markov import QbdProcess
from repro.perf import SweepCache, active_cache, cached, sweep_cache
from repro.perf.store import ResultStore


class TestSweepCacheUnit:
    def test_no_scope_means_no_caching(self):
        calls = []
        assert active_cache() is None
        assert cached("ns", "k", lambda: calls.append(1) or "v") == "v"
        assert cached("ns", "k", lambda: calls.append(1) or "v") == "v"
        assert len(calls) == 2  # computed both times

    def test_scope_memoizes_and_counts(self):
        calls = []
        with sweep_cache() as cache:
            first = cached("ns", "k", lambda: calls.append(1) or object())
            second = cached("ns", "k", lambda: calls.append(1) or object())
            assert first is second
            assert len(calls) == 1
            assert cache.hits["ns"] == 1 and cache.misses["ns"] == 1
        assert active_cache() is None

    def test_namespaces_are_disjoint(self):
        with sweep_cache():
            a = cached("ns-a", "k", lambda: "a")
            b = cached("ns-b", "k", lambda: "b")
            assert (a, b) == ("a", "b")

    def test_nested_scopes_share_the_outer_cache(self):
        with sweep_cache() as outer:
            cached("ns", "k", lambda: "v")
            with sweep_cache() as inner:
                assert inner is outer
                assert inner.contains("ns", "k")
            # inner exit must not tear down the outer scope
            assert active_cache() is outer
        assert active_cache() is None

    def test_scope_dies_with_the_context(self):
        with sweep_cache():
            cached("ns", "k", lambda: "v")
        with sweep_cache() as fresh:
            assert not fresh.contains("ns", "k")

    def test_stats_and_values(self):
        cache = SweepCache()
        cache.get_or_compute("ns", 1, lambda: "x")
        cache.get_or_compute("ns", 1, lambda: "x")
        cache.get_or_compute("other", 2, lambda: "y")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["by_namespace"]["ns"]["hit_rate"] == 0.5
        assert cache.values("ns") == ["x"]

    def test_preload_memoizes_store_hits_without_counting(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        SweepCache(store=store).get_or_compute("ph-fit", "k", lambda: 2.5)
        cache = SweepCache(store=ResultStore(tmp_path / "store"))
        assert cache.preload("ph-fit", "k")
        assert not cache.preload("ph-fit", "absent")
        assert cache.contains("ph-fit", "k")
        assert cache.stats()["hits"] == 0 and cache.stats()["misses"] == 0
        assert cache.store.session_stats()["writes"] == 0
        assert cache.lookup("ph-fit", "k") == (True, 2.5)
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 0


class TestDiagnosticsObservability:
    def _blocks(self):
        # A small stable QBD: M/M/1-like with two phases.
        a0 = np.array([[0.5, 0.0], [0.0, 0.5]])
        a1 = np.array([[0.0, 0.3], [0.2, 0.0]])
        a2 = np.array([[1.0, 0.0], [0.0, 1.2]])
        return a0, a1, a2

    def test_qbd_hit_flags_diagnostics(self):
        # The solution memo sits at the analysis level: a second analysis
        # of the same inputs in the same scope is served from it.
        params = SystemParameters.from_loads(rho_s=1.0, rho_l=0.5)
        with sweep_cache():
            miss = CsCqAnalysis(params).solution
            hit = CsCqAnalysis(params).solution
        assert miss.diagnostics.cache_hit is False
        assert hit.diagnostics.cache_hit is True
        assert "cache hit" in hit.diagnostics.summary()
        # identical content, and the flag never leaks back onto the
        # stored (miss) object
        assert np.array_equal(hit.pi_repeat, miss.pi_repeat)
        assert miss.diagnostics.cache_hit is False

    def test_uncached_solve_untouched_outside_scope(self):
        a0, a1, a2 = self._blocks()
        solution = QbdProcess([], [], [], a0, a1, a2).solve()
        assert solution.diagnostics.cache_hit is False


def _uncached(monkeypatch):
    """Disable the sweep cache inside the figure functions."""

    @contextlib.contextmanager
    def null_scope():
        yield None

    monkeypatch.setattr(figures, "sweep_cache", null_scope)


def _assert_panels_identical(cached_panels, uncached_panels):
    assert len(cached_panels) == len(uncached_panels)
    for got, want in zip(cached_panels, uncached_panels):
        assert got.title == want.title
        assert len(got.series) == len(want.series)
        for s_got, s_want in zip(got.series, want.series):
            assert s_got.label == s_want.label
            # exact equality: a cache hit must be the bit-identical value
            assert np.array_equal(s_got.x, s_want.x, equal_nan=True)
            assert np.array_equal(s_got.y, s_want.y, equal_nan=True)


class TestCachedEqualsUncached:
    """S4: every cached quantity equals its uncached counterpart exactly."""

    def test_figure4_grid(self, monkeypatch):
        with sweep_cache() as cache:
            cached_panels = figures.figure4_panels()
        assert cache.stats()["hits"] > 0  # the sweep actually exercised it
        _uncached(monkeypatch)
        _assert_panels_identical(cached_panels, figures.figure4_panels())

    def test_figure5_grid(self, monkeypatch):
        with sweep_cache() as cache:
            cached_panels = figures.figure5_panels()
        assert cache.stats()["hits"] > 0
        _uncached(monkeypatch)
        _assert_panels_identical(cached_panels, figures.figure5_panels())

    def test_figure6_grid(self, monkeypatch):
        with sweep_cache() as cache:
            cached_panels = figures.figure6_panels()
        assert cache.stats()["hits"] > 0
        _uncached(monkeypatch)
        _assert_panels_identical(cached_panels, figures.figure6_panels())

    def test_repeated_sweep_is_all_hits_and_identical(self):
        """Within one scope a repeated sweep is served from the cache —
        and still returns exactly the same numbers."""
        with sweep_cache() as cache:
            first = figures.figure4_panels(rho_l=0.5, rho_s_values=[0.4, 0.8])
            misses_after_first = cache.stats()["misses"]
            second = figures.figure4_panels(rho_l=0.5, rho_s_values=[0.4, 0.8])
            assert cache.stats()["misses"] == misses_after_first
        _assert_panels_identical(first, second)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
