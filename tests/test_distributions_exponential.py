"""Tests for Exponential and Erlang distributions."""

import numpy as np
import pytest

from repro.distributions import Erlang, Exponential


class TestExponential:
    def test_moments(self):
        e = Exponential(2.0)
        assert e.mean == pytest.approx(0.5)
        assert e.moment(2) == pytest.approx(0.5)
        assert e.moment(3) == pytest.approx(6 / 8)
        assert e.scv == pytest.approx(1.0)
        assert e.variance == pytest.approx(0.25)

    def test_from_mean(self):
        assert Exponential.from_mean(4.0).rate == pytest.approx(0.25)

    def test_laplace(self):
        e = Exponential(3.0)
        assert e.laplace(0.0) == pytest.approx(1.0)
        assert e.laplace(3.0) == pytest.approx(0.5)

    def test_laplace_derivative_consistency(self):
        # -d/ds L(s) at 0 ~= mean via finite differences.
        e = Exponential(1.7)
        h = 1e-6
        deriv = (e.laplace(h) - e.laplace(-h)) / (2 * h)
        assert -deriv == pytest.approx(e.mean, rel=1e-6)

    def test_sampling_matches_moments(self, rng):
        e = Exponential(0.5)
        samples = e.sample(rng, 200_000)
        assert samples.mean() == pytest.approx(e.mean, rel=0.02)
        assert np.mean(samples**2) == pytest.approx(e.moment(2), rel=0.05)

    def test_as_phase_type(self):
        ph = Exponential(2.5).as_phase_type()
        assert ph.mean == pytest.approx(0.4)
        assert ph.laplace(1.0) == pytest.approx(2.5 / 3.5)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Exponential(-1.0)
        with pytest.raises(ValueError):
            Exponential.from_mean(0.0)

    def test_invalid_moment_order(self):
        with pytest.raises(ValueError):
            Exponential(1.0).moment(0)


class TestErlang:
    def test_moments(self):
        er = Erlang(3, 3.0)  # mean 1, scv 1/3
        assert er.mean == pytest.approx(1.0)
        assert er.scv == pytest.approx(1 / 3)
        assert er.moment(2) == pytest.approx(3 * 4 / 9)

    def test_from_mean(self):
        er = Erlang.from_mean(4, 2.0)
        assert er.mean == pytest.approx(2.0)
        assert er.scv == pytest.approx(0.25)

    def test_shape_one_is_exponential(self):
        er = Erlang(1, 2.0)
        e = Exponential(2.0)
        for k in (1, 2, 3):
            assert er.moment(k) == pytest.approx(e.moment(k))
        assert er.laplace(1.3) == pytest.approx(e.laplace(1.3))

    def test_laplace_vs_phase_type(self):
        er = Erlang(4, 2.0)
        ph = er.as_phase_type()
        for s in (0.1, 1.0, 5.0):
            assert complex(ph.laplace(s)).real == pytest.approx(
                complex(er.laplace(s)).real, rel=1e-10
            )

    def test_phase_type_moments(self):
        er = Erlang(5, 2.5)
        ph = er.as_phase_type()
        for k in (1, 2, 3, 4):
            assert ph.moment(k) == pytest.approx(er.moment(k), rel=1e-10)

    def test_sampling(self, rng):
        er = Erlang(2, 2.0)
        samples = er.sample(rng, 100_000)
        assert samples.mean() == pytest.approx(1.0, rel=0.02)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Erlang(0, 1.0)
        with pytest.raises(ValueError):
            Erlang(2, -1.0)
