"""Tests for three-moment phase-type fitting (the paper's key approximation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import (
    Coxian,
    Erlang,
    Exponential,
    FittingError,
    Hyperexponential,
    coxian2,
    coxian_from_mean_scv,
    fit_coxian2,
    fit_mixed_erlang,
    fit_phase_type,
)


class TestFitCoxian2:
    def test_round_trip_from_coxian(self):
        target = coxian2(2.0, 0.4, 0.35)
        fitted = fit_coxian2(*target.moments(3))
        for k in (1, 2, 3):
            assert fitted.moment(k) == pytest.approx(target.moment(k), rel=1e-9)

    def test_round_trip_from_hyperexponential(self):
        target = Hyperexponential.balanced_means(1.0, 8.0)
        fitted = fit_coxian2(*target.moments(3))
        for k in (1, 2, 3):
            assert fitted.moment(k) == pytest.approx(target.moment(k), rel=1e-9)

    def test_exponential_special_case(self):
        e = Exponential(2.0)
        fitted = fit_coxian2(*e.moments(3))
        for k in (1, 2, 3):
            assert fitted.moment(k) == pytest.approx(e.moment(k), rel=1e-9)

    def test_low_variability_rejected(self):
        # Erlang-4 moments are outside the Coxian-2 region.
        with pytest.raises(FittingError):
            fit_coxian2(*Erlang(4, 4.0).moments(3))

    def test_infeasible_moments_rejected(self):
        with pytest.raises(ValueError):
            fit_coxian2(1.0, 0.5, 1.0)  # m2 < m1^2


class TestFitMixedErlang:
    def test_fits_erlang_moments(self):
        target = Erlang(4, 4.0)
        fitted = fit_mixed_erlang(*target.moments(3))
        for k in (1, 2, 3):
            assert fitted.moment(k) == pytest.approx(target.moment(k), rel=1e-8)

    def test_fits_hyperexponential_with_k1(self):
        target = Hyperexponential([0.2, 0.8], [0.25, 2.0])
        fitted = fit_mixed_erlang(*target.moments(3))
        for k in (1, 2, 3):
            assert fitted.moment(k) == pytest.approx(target.moment(k), rel=1e-8)

    def test_near_deterministic_fails_gracefully(self):
        with pytest.raises(FittingError):
            fit_mixed_erlang(1.0, 1.0001, 1.001, max_order=16)


class TestFitPhaseType:
    @pytest.mark.parametrize(
        "target",
        [
            Exponential(0.7),
            coxian2(1.5, 0.2, 0.6),
            Hyperexponential.balanced_means(3.0, 20.0),
            Erlang(3, 1.0),
            Erlang(8, 2.0),
        ],
        ids=["exp", "coxian2", "h2-c20", "erlang3", "erlang8"],
    )
    def test_matches_three_moments(self, target):
        fitted = fit_phase_type(*target.moments(3))
        for k in (1, 2, 3):
            assert fitted.moment(k) == pytest.approx(target.moment(k), rel=1e-7)

    @given(
        mean=st.floats(0.1, 50.0),
        scv=st.floats(0.6, 30.0),
        skew_factor=st.floats(1.05, 5.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_round_trip(self, mean, scv, skew_factor):
        """Any feasible (m1, m2, m3) triple is matched exactly."""
        m1 = mean
        m2 = (1.0 + scv) * m1 * m1
        m3 = skew_factor * m2 * m2 / m1  # above the Cauchy-Schwarz floor
        try:
            fitted = fit_phase_type(m1, m2, m3)
        except FittingError:
            return  # outside both families' regions: acceptable, just rare
        assert fitted.moment(1) == pytest.approx(m1, rel=1e-6)
        assert fitted.moment(2) == pytest.approx(m2, rel=1e-6)
        assert fitted.moment(3) == pytest.approx(m3, rel=1e-5)


class TestCoxianFromMeanScv:
    def test_high_variability(self):
        c = coxian_from_mean_scv(1.0, 8.0)
        assert c.mean == pytest.approx(1.0)
        assert c.scv == pytest.approx(8.0)

    def test_unit_scv_is_exponential(self):
        c = coxian_from_mean_scv(2.0, 1.0)
        assert isinstance(c, Exponential)

    def test_moderate_low_variability_coxian(self):
        c = coxian_from_mean_scv(1.0, 0.6)
        assert isinstance(c, Coxian)
        assert c.mean == pytest.approx(1.0)
        assert c.scv == pytest.approx(0.6)

    def test_very_low_variability_falls_back(self):
        c = coxian_from_mean_scv(1.0, 0.2)
        assert c.mean == pytest.approx(1.0)
        assert c.scv == pytest.approx(0.2, rel=1e-6)

    def test_paper_figure5_distribution(self):
        """Figure 5's longs: 'Coxian with appropriate mean and C^2 = 8'."""
        for mean in (1.0, 10.0):
            c = coxian_from_mean_scv(mean, 8.0)
            assert c.mean == pytest.approx(mean)
            assert c.scv == pytest.approx(8.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            coxian_from_mean_scv(-1.0, 2.0)
        with pytest.raises(ValueError):
            coxian_from_mean_scv(1.0, 0.0)
