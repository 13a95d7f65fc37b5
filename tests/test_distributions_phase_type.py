"""Tests for general phase-type distributions."""

import math

import pytest

from repro.distributions import Exponential, PhaseType


def h2_ph() -> PhaseType:
    """A two-branch hyperexponential as an explicit PH."""
    return PhaseType([0.4, 0.6], [[-1.0, 0.0], [0.0, -3.0]])


class TestPhaseType:
    def test_moment_formula_hyperexponential(self):
        ph = h2_ph()
        # E[X^k] = 0.4 * k!/1^k + 0.6 * k!/3^k
        for k in (1, 2, 3, 4):
            expected = 0.4 * math.factorial(k) + 0.6 * math.factorial(k) / 3.0**k
            assert ph.moment(k) == pytest.approx(expected)

    def test_laplace_hyperexponential(self):
        ph = h2_ph()
        s = 2.0
        expected = 0.4 * 1 / 3 + 0.6 * 3 / 5
        assert complex(ph.laplace(s)).real == pytest.approx(expected)

    def test_atom_at_zero(self):
        ph = PhaseType([0.5], [[-1.0]])  # mass 0.5 at 0
        assert ph.mean == pytest.approx(0.5)
        assert complex(ph.laplace(1e9)).real == pytest.approx(0.5, rel=1e-6)

    def test_sampling(self, rng):
        ph = h2_ph()
        samples = ph.sample(rng, 50_000)
        assert samples.mean() == pytest.approx(ph.mean, rel=0.03)

    def test_sampling_with_internal_transitions(self, rng):
        # Hypoexponential: 2 stages in series.
        ph = PhaseType([1.0, 0.0], [[-2.0, 2.0], [0.0, -4.0]])
        assert ph.mean == pytest.approx(0.75)
        samples = ph.sample(rng, 50_000)
        assert samples.mean() == pytest.approx(0.75, rel=0.03)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PhaseType([1.0], [[-1.0, 0.0], [0.0, -1.0]])  # alpha/T mismatch
        with pytest.raises(ValueError):
            PhaseType([1.0, 0.0], [[-1.0, 2.0]])  # non-square
        with pytest.raises(ValueError):
            PhaseType([1.0], [[1.0]])  # positive diagonal
        with pytest.raises(ValueError):
            PhaseType([1.0, 0.0], [[-1.0, -0.5], [0.0, -1.0]])  # negative off-diag
        with pytest.raises(ValueError):
            PhaseType([0.7, 0.7], [[-1.0, 0.0], [0.0, -1.0]])  # alpha sums > 1
        with pytest.raises(ValueError):
            PhaseType([1.0, 0.0], [[-1.0, 2.0], [0.0, -1.0]])  # row sum > 0

    def test_exponential_round_trip(self):
        e = Exponential(2.0)
        ph = e.as_phase_type()
        assert isinstance(ph, PhaseType)
        assert ph.as_phase_type() is ph
        for k in (1, 2, 3):
            assert ph.moment(k) == pytest.approx(e.moment(k))
