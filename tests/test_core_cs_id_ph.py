"""Tests for CS-ID with phase-type short service."""

import numpy as np
import pytest

from repro.core import (
    CsIdAnalysis,
    CsIdPhAnalysis,
    SystemParameters,
    UnstableSystemError,
    caught_short_remainder_moments,
)
from repro.distributions import Erlang, Exponential, PhaseType, coxian_from_mean_scv
from repro.simulation import simulate

#: ``(E[T_S], E[T_L])`` of the exponential-shorts analysis, as the
#: dedicated exponential class computed them before the phase-type chain
#: became the only definition (exponential shorts are its k = 1).
PUBLISHED = {
    (0.5, 0.3): (1.28484829950047, 1.7619047619047619),
    (1.0, 0.5): (3.807799574941579, 2.5),
}


class TestCatchPhase:
    def test_exponential_single_phase(self):
        """A caught exponential short's remainder is the same exponential
        (memorylessness): the B_(M+1) interval of the published chain."""
        remainder = caught_short_remainder_moments(Exponential(2.0), 0.5)
        assert remainder == pytest.approx(Exponential(2.0).moments(3), rel=1e-12)

    def test_matches_transform_remainder_moments(self):
        """PH(eta, S), with eta the phase at the catch, is the caught
        short's remainder — its moments must equal the transform-derived
        closed forms the analysis uses (two independent derivations of the
        same object)."""
        for dist in (Erlang(3, 3.0), coxian_from_mean_scv(1.0, 4.0)):
            ph = dist.as_phase_type()
            # Phase at an independent Exp(0.6) time, given not yet absorbed.
            weights = 0.6 * ph.alpha @ np.linalg.inv(0.6 * np.eye(ph.n_phases) - ph.T)
            remainder = PhaseType(weights / weights.sum(), ph.T)
            exact = caught_short_remainder_moments(dist, 0.6)
            for got, want in zip(remainder.moments(3), exact):
                assert got == pytest.approx(want, rel=1e-9)

    def test_invalid_lam(self):
        with pytest.raises(ValueError):
            caught_short_remainder_moments(Exponential(1.0), 0.0)

    def test_remainder_limits(self):
        """Rare catches land uniformly in the service (equilibrium excess
        ``E[X^2] / 2E[X]``); frequent ones at its start (the whole ``X``)."""
        dist = Erlang(3, 3.0)
        slow = caught_short_remainder_moments(dist, 1e-3)[0]
        fast = caught_short_remainder_moments(dist, 1e4)[0]
        assert slow == pytest.approx(dist.moment(2) / (2 * dist.mean), rel=1e-3)
        assert fast == pytest.approx(dist.mean, rel=1e-3)


class TestExponentialReduction:
    @pytest.mark.parametrize("rho_s,rho_l", [(0.5, 0.3), (1.0, 0.5)])
    def test_reduces_to_published_analysis(self, rho_s, rho_l):
        p = SystemParameters.from_loads(rho_s=rho_s, rho_l=rho_l)
        analysis = CsIdAnalysis(p)
        assert analysis.k == 1
        short, long = PUBLISHED[(rho_s, rho_l)]
        assert analysis.mean_response_time_short() == pytest.approx(short, rel=1e-9)
        assert analysis.mean_response_time_long() == pytest.approx(long, rel=1e-9)
        assert analysis.prob_long_host_idle() == pytest.approx(
            analysis.cycle.prob_idle, rel=1e-8
        )

    def test_former_name_is_the_same_class(self):
        assert CsIdPhAnalysis is CsIdAnalysis


class TestPhShorts:
    def test_idle_probability_consistency(self):
        """QBD marginal must match the exact renewal cycle for PH shorts."""
        p = SystemParameters.from_loads(rho_s=0.8, rho_l=0.4, short_scv=0.5)
        analysis = CsIdAnalysis(p)
        assert analysis.prob_long_host_idle() == pytest.approx(
            analysis.cycle.prob_idle, rel=1e-8
        )

    def test_heterogeneous_idle_probability(self):
        """PH shorts on hosts of different speeds: the donor-side PH runs
        at the long host's speed, the short-host PH at the short host's."""
        p = SystemParameters.from_loads(rho_s=0.8, rho_l=0.4, short_scv=0.5)
        analysis = CsIdAnalysis(p, host_speeds=(1.0, 2.0))
        assert analysis.k == 2
        assert analysis.donor_ph.mean == pytest.approx(0.5 * analysis.short_ph.mean)
        assert analysis.prob_long_host_idle() == pytest.approx(
            analysis.cycle.prob_idle, abs=1e-8
        )

    def test_variability_ordering(self):
        values = {}
        for scv in (0.5, 1.0, 4.0):
            p = SystemParameters.from_loads(rho_s=0.9, rho_l=0.5, short_scv=scv)
            values[scv] = CsIdAnalysis(p).mean_response_time_short()
        assert values[0.5] < values[1.0] < values[4.0]

    def test_stability_enforced(self):
        with pytest.raises(UnstableSystemError):
            CsIdAnalysis(
                SystemParameters.from_loads(rho_s=1.45, rho_l=0.4, short_scv=0.5)
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("scv", [0.5, 2.0])
    def test_matches_simulation(self, scv):
        p = SystemParameters.from_loads(rho_s=0.9, rho_l=0.5, short_scv=scv)
        analysis = CsIdAnalysis(p)
        sim = simulate("cs-id", p, seed=71, warmup_jobs=40_000, measured_jobs=300_000)
        assert analysis.mean_response_time_short() == pytest.approx(
            sim.mean_response_short, rel=0.04
        )
        assert analysis.mean_response_time_long() == pytest.approx(
            sim.mean_response_long, rel=0.02
        )

    def test_long_side_exact_for_general_shorts(self):
        """The long response is the renewal cycle's (exact given moments);
        it must be invariant to how the short host is modeled."""
        p = SystemParameters.from_loads(rho_s=0.9, rho_l=0.5, short_scv=2.0)
        from repro.core import LongHostCycle

        assert CsIdAnalysis(p).mean_response_time_long() == pytest.approx(
            LongHostCycle(p).mean_response_time_long()
        )
