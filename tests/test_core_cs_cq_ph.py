"""Tests for CS-CQ with phase-type short service (the sketched extension)."""

import numpy as np
import pytest

from repro.contracts import OracleConfig
from repro.core import (
    CsCqAnalysis,
    CsCqPhAnalysis,
    CsCqTruncatedChain,
    SystemParameters,
    UnstableSystemError,
    first_completion_moments,
    first_completion_of_two,
)
from repro.core import cs_cq
from repro.distributions import Erlang, Exponential
from repro.markov import QbdProcess
from repro.simulation import simulate

#: ``(E[T_S], E[T_L])`` of the published exponential-shorts analysis, as
#: the dedicated exponential class computed them before the phase-type
#: chain became the only definition (exponential shorts are its k = 1).
PUBLISHED = {
    (0.5, 0.3, 1.0): (1.193188957747309, 1.488285452765008),
    (1.0, 0.5, 1.0): (2.538424876477775, 2.241425050373759),
    (1.3, 0.4, 1.0): (4.127264441082791, 2.01727686785116),
    (0.9, 0.5, 8.0): (2.5304328657384656, 5.689509104125806),
}


class TestFirstCompletionOfTwo:
    def test_two_exponentials_is_exp_of_double_rate(self):
        ph = Exponential(2.0).as_phase_type()
        first = first_completion_of_two(ph, np.array([1.0]))
        assert first.mean == pytest.approx(1.0 / 4.0)
        assert first.scv == pytest.approx(1.0)

    def test_two_erlangs_mean(self, rng):
        ph = Erlang(2, 2.0).as_phase_type()
        eta = np.kron(ph.alpha, ph.alpha)
        first = first_completion_of_two(ph, eta)
        # Monte-Carlo check of the min of two fresh Erlang(2, 2) services.
        a = Erlang(2, 2.0).sample(rng, 200_000)
        b = Erlang(2, 2.0).sample(rng, 200_000)
        assert first.mean == pytest.approx(float(np.minimum(a, b).mean()), rel=0.01)

    def test_min_is_below_single(self):
        ph = Erlang(3, 3.0).as_phase_type()
        eta = np.kron(ph.alpha, ph.alpha)
        assert first_completion_of_two(ph, eta).mean < ph.mean

    def test_direct_moments_match_phase_type(self):
        ph = Erlang(3, 3.0).as_phase_type()
        eta = np.kron(ph.alpha, ph.alpha)
        direct = first_completion_moments(ph, eta)
        assert direct == pytest.approx(first_completion_of_two(ph, eta).moments(3), rel=1e-12)


class TestExponentialReduction:
    @pytest.mark.parametrize("rho_s,rho_l", [(0.5, 0.3), (1.0, 0.5), (1.3, 0.4)])
    def test_reduces_to_published_analysis(self, rho_s, rho_l):
        """With exponential shorts the chain IS the paper's: the published
        analysis' values, and the exact finite chain within the oracle's
        tolerance."""
        p = SystemParameters.from_loads(rho_s=rho_s, rho_l=rho_l)
        analysis = CsCqAnalysis(p)
        assert analysis.k == 1
        short, long = PUBLISHED[(rho_s, rho_l, 1.0)]
        assert analysis.mean_response_time_short() == pytest.approx(short, rel=1e-9)
        assert analysis.mean_response_time_long() == pytest.approx(long, rel=1e-9)
        exact = CsCqTruncatedChain(p, max_short=90, max_long=50).solve()
        assert exact.truncation_mass <= OracleConfig.truncation_mass_tol
        tolerance = OracleConfig.rel_tolerance
        assert analysis.mean_response_time_short() == pytest.approx(
            exact.mean_response_time_short, rel=tolerance
        )
        assert analysis.mean_response_time_long() == pytest.approx(
            exact.mean_response_time_long, rel=tolerance
        )

    def test_reduces_with_coxian_longs(self):
        p = SystemParameters.from_loads(rho_s=0.9, rho_l=0.5, long_scv=8.0)
        analysis = CsCqAnalysis(p)
        short, long = PUBLISHED[(0.9, 0.5, 8.0)]
        assert analysis.mean_response_time_short() == pytest.approx(short, rel=1e-9)
        assert analysis.mean_response_time_long() == pytest.approx(long, rel=1e-9)

    def test_former_name_is_the_same_class(self):
        assert CsCqPhAnalysis is CsCqAnalysis


def _count_solves(monkeypatch) -> list:
    calls = []
    solve = QbdProcess.solve

    def counting(process):
        calls.append(process)
        return solve(process)

    monkeypatch.setattr(QbdProcess, "solve", counting)
    return calls


class TestFixedPoint:
    def test_one_phase_solves_once(self, monkeypatch):
        """k = 1: eta = z / z = [1.0] exactly, so the fixed point stops
        after the first solve."""
        calls = _count_solves(monkeypatch)
        analysis = CsCqAnalysis(SystemParameters.from_loads(rho_s=1.0, rho_l=0.5))
        analysis.mean_response_time_short()
        analysis.mean_response_time_long()
        assert len(calls) == 1

    @pytest.mark.parametrize("short_scv", [0.5, 4.0])
    def test_two_phases_converge(self, monkeypatch, short_scv):
        calls = _count_solves(monkeypatch)
        p = SystemParameters.from_loads(rho_s=1.0, rho_l=0.5, short_scv=short_scv)
        analysis = CsCqAnalysis(p)
        assert analysis.k == 2
        analysis.mean_response_time_short()
        assert 1 < len(calls) < cs_cq.MAX_FIXED_POINT_ITER
        # The solved chain reproduces the eta its B_(N+1) fit started from.
        z_mass = analysis.solution.phase_marginal()[:4]
        assert np.abs(z_mass / z_mass.sum() - analysis._eta).max() <= cs_cq.FIXED_POINT_TOL

    def test_solves_lazily(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        CsCqAnalysis(SystemParameters.from_loads(rho_s=1.0, rho_l=0.5, short_scv=0.5))
        assert calls == []


class TestPhShorts:
    def test_low_variability_shorts_reduce_response(self):
        """Erlang shorts (scv 1/2) wait less than exponential shorts."""
        exp = CsCqAnalysis(SystemParameters.from_loads(rho_s=1.0, rho_l=0.5))
        erl = CsCqAnalysis(
            SystemParameters.from_loads(rho_s=1.0, rho_l=0.5, short_scv=0.5)
        )
        assert erl.mean_response_time_short() < exp.mean_response_time_short()

    def test_high_variability_shorts_increase_response(self):
        exp = CsCqAnalysis(SystemParameters.from_loads(rho_s=1.0, rho_l=0.5))
        h2 = CsCqAnalysis(
            SystemParameters.from_loads(rho_s=1.0, rho_l=0.5, short_scv=4.0)
        )
        assert h2.mean_response_time_short() > exp.mean_response_time_short()

    def test_littles_law(self):
        p = SystemParameters.from_loads(rho_s=0.8, rho_l=0.4, short_scv=2.0)
        analysis = CsCqAnalysis(p)
        assert analysis.mean_number_short() == pytest.approx(
            p.lam_s * analysis.mean_response_time_short()
        )

    def test_stability_enforced(self):
        with pytest.raises(UnstableSystemError):
            CsCqAnalysis(
                SystemParameters.from_loads(rho_s=1.6, rho_l=0.5, short_scv=0.5)
            )

    def test_region_probabilities_positive(self):
        p = SystemParameters.from_loads(rho_s=0.9, rho_l=0.5, short_scv=0.5)
        regions = CsCqAnalysis(p).region_probabilities()
        assert regions.region1 > 0 and regions.region2 > 0
        assert regions.region1 + regions.region2 < 1

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "scv,rho_s,rho_l", [(0.5, 1.0, 0.5), (4.0, 1.0, 0.5), (2.0, 0.7, 0.3)]
    )
    def test_matches_simulation(self, scv, rho_s, rho_l):
        p = SystemParameters.from_loads(rho_s=rho_s, rho_l=rho_l, short_scv=scv)
        analysis = CsCqAnalysis(p)
        sim = simulate("cs-cq", p, seed=51, warmup_jobs=40_000, measured_jobs=400_000)
        assert analysis.mean_response_time_short() == pytest.approx(
            sim.mean_response_short, rel=0.04
        )
        assert analysis.mean_response_time_long() == pytest.approx(
            sim.mean_response_long, rel=0.02
        )
