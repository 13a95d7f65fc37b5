"""Tests for Theorem 1's stability regions (and Figure 3's shape)."""

import pytest

from repro.core import (
    GOLDEN_RATIO,
    cs_cq_is_stable,
    cs_cq_max_rho_s,
    cs_id_is_stable,
    cs_id_long_host_prob_busy,
    cs_id_long_host_prob_busy_from_cycle,
    cs_id_max_rho_s,
    dedicated_is_stable,
    dedicated_max_rho_s,
)


class TestDedicated:
    def test_unit_square(self):
        assert dedicated_is_stable(0.99, 0.99)
        assert not dedicated_is_stable(1.0, 0.5)
        assert not dedicated_is_stable(0.5, 1.0)
        assert dedicated_max_rho_s(0.5) == 1.0
        assert dedicated_max_rho_s(1.0) == 0.0


class TestCsCq:
    def test_theorem_boundary(self):
        assert cs_cq_max_rho_s(0.0) == pytest.approx(2.0)
        assert cs_cq_max_rho_s(0.5) == pytest.approx(1.5)
        assert cs_cq_is_stable(1.49, 0.5)
        assert not cs_cq_is_stable(1.5, 0.5)
        assert not cs_cq_is_stable(0.5, 1.0)


class TestCsId:
    def test_golden_ratio_at_zero_long_load(self):
        """Paper: 'rho_s can be as high as about 1.6 under CS-ID'."""
        assert cs_id_max_rho_s(0.0) == pytest.approx(GOLDEN_RATIO, rel=1e-9)

    def test_boundary_decreases_with_rho_l(self):
        values = [cs_id_max_rho_s(r) for r in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert values == sorted(values, reverse=True)

    def test_boundary_approaches_one(self):
        assert cs_id_max_rho_s(0.999) == pytest.approx(1.0, abs=5e-3)

    def test_between_dedicated_and_cs_cq(self):
        """Figure 3's ordering: Dedicated < CS-ID < CS-CQ everywhere."""
        for rho_l in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert (
                dedicated_max_rho_s(rho_l)
                < cs_id_max_rho_s(rho_l)
                < cs_cq_max_rho_s(rho_l)
            )

    def test_is_stable_consistent_with_boundary(self):
        rho_l = 0.4
        boundary = cs_id_max_rho_s(rho_l)
        assert cs_id_is_stable(boundary - 0.01, rho_l)
        assert not cs_id_is_stable(boundary + 0.01, rho_l)

    def test_unstable_longs(self):
        assert not cs_id_is_stable(0.5, 1.0)

    def test_golden_ratio_closed_form(self):
        """At rho_l = 0 the boundary solves rho^2 = 1 + rho."""
        phi = cs_id_max_rho_s(0.0)
        assert phi * phi == pytest.approx(1 + phi, rel=1e-9)

    def test_prob_busy_monotone_in_rho_s(self):
        values = [
            cs_id_long_host_prob_busy(r, 0.3) for r in (0.1, 0.5, 1.0, 1.5)
        ]
        assert values == sorted(values)

    def test_prob_busy_bounds(self):
        p = cs_id_long_host_prob_busy(0.8, 0.4)
        assert 0.4 < p < 1.0  # at least the long load, below saturation

    def test_closed_form_matches_regenerative_cycle(self):
        """P(busy) = (rho_s + rho_l)/(1 + rho_s) must agree with the
        explicit cycle computation for *any* mean sizes — the means cancel
        out of the cycle algebra."""
        for rho_s, rho_l in [(0.3, 0.2), (0.9, 0.5), (1.4, 0.1)]:
            closed = cs_id_long_host_prob_busy(rho_s, rho_l)
            for mean_short, mean_long in [(1.0, 1.0), (1.0, 10.0), (10.0, 1.0), (3.0, 0.2)]:
                via_cycle = cs_id_long_host_prob_busy_from_cycle(
                    rho_s, rho_l, mean_short, mean_long
                )
                assert via_cycle == pytest.approx(closed, rel=1e-12)

    def test_quadratic_boundary_closed_form(self):
        """Boundary solves rho_s^2 + rho_s rho_l - rho_s - 1 = 0."""
        for rho_l in (0.0, 0.25, 0.5, 0.75):
            b = cs_id_max_rho_s(rho_l)
            assert b * b + b * rho_l - b - 1.0 == pytest.approx(0.0, abs=1e-12)
