"""Near-boundary regression tests: no silent wrong answers as rho_s -> 2 - rho_l.

The contract under test (ISSUE 1): sweeping ``rho_s`` up to
``0.999 * (2 - rho_l)``, every CS-CQ point must either

* produce a finite positive mean with a small solver residual (checked via
  the attached :class:`SolverDiagnostics`), or
* raise a typed :class:`ReproError` —

never return garbage silently, and never an approximation in place of a
failed exact solve.
"""

import warnings

import numpy as np
import pytest

from repro.core import CsCqAnalysis, CsIdAnalysis, DedicatedAnalysis, SystemParameters
from repro.experiments import figure6_panels
from repro.workloads import EXPONENTIAL_CASES
from repro.markov import qbd
from repro.perf import batched
from repro.robustness import (
    ConvergenceError,
    NearBoundaryWarning,
    ReproError,
    ValidationError,
)

#: Residual bound for "the solver says this number is trustworthy".
RESIDUAL_BOUND = 1e-7


def _assert_trustworthy_or_typed(params: SystemParameters) -> None:
    """The core invariant: finite + verified, or typed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearBoundaryWarning)
        try:
            analysis = CsCqAnalysis(params)
            mean = analysis.mean_response_time_short()
        except ReproError:
            return  # a typed failure is an acceptable outcome
    assert np.isfinite(mean) and mean > 0.0
    diag = analysis.solver_diagnostics
    scale = max(1.0, 2.0 * params.mu_s + params.lam_s + params.lam_l)
    assert diag.residual is not None and diag.residual < RESIDUAL_BOUND * scale
    assert diag.spectral_radius is not None and diag.spectral_radius < 1.0


class TestNearBoundarySweepExponential:
    @pytest.mark.parametrize("rho_l", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("fraction", [0.9, 0.99])
    def test_exponential_longs(self, rho_l, fraction):
        rho_s = fraction * (2.0 - rho_l)
        _assert_trustworthy_or_typed(SystemParameters.from_loads(rho_s=rho_s, rho_l=rho_l))

    @pytest.mark.slow
    @pytest.mark.parametrize("rho_l", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("fraction", [0.995, 0.999])
    def test_exponential_longs_extreme(self, rho_l, fraction):
        rho_s = fraction * (2.0 - rho_l)
        _assert_trustworthy_or_typed(SystemParameters.from_loads(rho_s=rho_s, rho_l=rho_l))


class TestNearBoundarySweepCoxian:
    @pytest.mark.parametrize("rho_l", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("fraction", [0.9, 0.99])
    def test_coxian_longs(self, rho_l, fraction):
        rho_s = fraction * (2.0 - rho_l)
        params = SystemParameters.from_loads(
            rho_s=rho_s, rho_l=rho_l, mean_long=10.0, long_scv=8.0
        )
        _assert_trustworthy_or_typed(params)

    @pytest.mark.slow
    @pytest.mark.parametrize("rho_l", [0.3, 0.5, 0.8])
    def test_coxian_longs_extreme(self, rho_l):
        rho_s = 0.999 * (2.0 - rho_l)
        params = SystemParameters.from_loads(
            rho_s=rho_s, rho_l=rho_l, mean_long=10.0, long_scv=8.0
        )
        _assert_trustworthy_or_typed(params)


def _assert_policy_trustworthy_or_typed(factory) -> None:
    """Same invariant for the non-CS-CQ policies: a point either raises a
    typed :class:`ReproError` (e.g. ``UnstableSystemError`` past the
    policy's own frontier) or yields finite positive means — and when the
    analysis carries solver diagnostics they must vouch for the digits
    (``trusted``/``suspect`` with a nonnegative error bound).  A raw
    ``numpy.linalg.LinAlgError`` escaping is a failure of this test.
    """
    try:
        analysis = factory()
        mean_s = analysis.mean_response_time_short()
        mean_l = analysis.mean_response_time_long()
    except ReproError:
        return  # a typed failure is an acceptable outcome
    assert np.isfinite(mean_s) and mean_s > 0.0
    assert np.isfinite(mean_l) and mean_l > 0.0
    diag = getattr(analysis, "solver_diagnostics", None)
    if diag is not None:
        assert diag.trust in ("trusted", "suspect"), diag.trust
        assert diag.error_bound is not None
        assert np.isfinite(diag.error_bound) and diag.error_bound >= 0.0


class TestNearBoundarySweepCsId:
    """CS-ID at the same rho ladder as CS-CQ.

    Most of the CS-CQ ladder (``rho_s = fraction * (2 - rho_l)``) sits past
    CS-ID's own short-host frontier, so those points must raise the typed
    ``UnstableSystemError``; the points CS-ID can carry must come back with
    trustworthy diagnostics.  The ``fraction-of-1`` ladder then probes
    CS-ID just inside its own frontier.
    """

    @pytest.mark.parametrize("rho_l", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("fraction", [0.9, 0.99])
    def test_cs_cq_ladder(self, rho_l, fraction):
        rho_s = fraction * (2.0 - rho_l)
        params = SystemParameters.from_loads(rho_s=rho_s, rho_l=rho_l)
        _assert_policy_trustworthy_or_typed(lambda: CsIdAnalysis(params))

    @pytest.mark.parametrize("rho_l", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("fraction", [0.9, 0.99])
    def test_own_frontier_ladder(self, rho_l, fraction):
        params = SystemParameters.from_loads(rho_s=fraction, rho_l=rho_l)
        _assert_policy_trustworthy_or_typed(lambda: CsIdAnalysis(params))


class TestNearBoundarySweepDedicated:
    """Dedicated at the same rho ladder as CS-CQ.

    Dedicated is closed-form (two independent M/G/1s): every ladder point
    past ``rho_s = 1`` must raise the typed ``UnstableSystemError`` at
    construction, and every stable point must return finite positive
    Pollaczek-Khinchine means — no linear algebra to leak an untyped error.
    """

    @pytest.mark.parametrize("rho_l", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("fraction", [0.9, 0.99])
    def test_cs_cq_ladder(self, rho_l, fraction):
        rho_s = fraction * (2.0 - rho_l)
        params = SystemParameters.from_loads(rho_s=rho_s, rho_l=rho_l)
        _assert_policy_trustworthy_or_typed(lambda: DedicatedAnalysis(params))

    @pytest.mark.parametrize("rho_l", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("fraction", [0.9, 0.99])
    def test_own_frontier_ladder(self, rho_l, fraction):
        params = SystemParameters.from_loads(rho_s=fraction, rho_l=rho_l)
        _assert_policy_trustworthy_or_typed(lambda: DedicatedAnalysis(params))


class TestFailedSolveRaises:
    """A failed exact solve raises its typed error; nothing approximates."""

    def test_edge_point_fails_its_boundary_gate(self):
        # Case a at 1 - 1e-8 of the boundary: the boundary solve carries
        # materially negative entries, so the negativity gate refuses it.
        params = SystemParameters.from_loads(rho_s=(1.0 - 1e-8) * 1.5, rho_l=0.5)
        analysis = CsCqAnalysis(params)
        with pytest.raises(ValidationError):
            analysis.mean_response_time_short()

    @pytest.mark.parametrize(
        "loads",
        [
            dict(rho_s=0.999 * 1.5, rho_l=0.5),
            dict(rho_s=0.5, rho_l=0.5),
            dict(rho_s=0.999 * 1.5, rho_l=0.5, mean_long=10.0, long_scv=8.0),
        ],
        ids=["near-boundary-exponential", "far-from-boundary", "coxian-longs"],
    )
    def test_forced_failure_raises_the_typed_error(self, monkeypatch, loads):
        def boom(self):
            raise ConvergenceError("forced failure for testing", residual=1.0)

        monkeypatch.setattr(qbd.QbdProcess, "solve", boom)
        analysis = CsCqAnalysis(SystemParameters.from_loads(**loads))
        for accessor in (
            analysis.mean_response_time_short,
            analysis.mean_response_time_long,
            lambda: analysis.solution,
            lambda: analysis.solver_diagnostics,
        ):
            with pytest.raises(ConvergenceError):
                accessor()


class TestFigureSweepCompletes:
    """Figure-6-style sweeps must complete end-to-end, crash-free."""

    def test_figure6_point_very_near_boundary(self):
        # rho_s = 1.5 fixed, rho_l swept up to 0.999 * (2 - rho_s): the
        # last point sits at 0.999 of the boundary in the rho_l direction.
        rho_s = 1.5
        boundary = 2.0 - rho_s
        rho_l_values = [0.25, 0.45, 0.999 * boundary]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearBoundaryWarning)
            panels = figure6_panels(
                rho_s=rho_s,
                rho_l_values_short=rho_l_values,
                rho_l_values_long=[0.25, 0.5, 0.75],
                cases=EXPONENTIAL_CASES[:1],
            )
        assert panels  # completed end-to-end without raising
        shorts_panel = panels[0]
        cs_cq = shorts_panel.by_label("CS-Central-Q")
        # Stable interior points must be finite; the extreme point may be
        # finite or NaN (typed failure recorded) — but the sweep itself
        # never crashes.
        assert np.isfinite(cs_cq.y[:2]).all()

    @pytest.mark.slow
    def test_figure6_sweep_with_forced_failures(self, monkeypatch):
        # Even when the exact QBD solve is broken outright, the sweep
        # completes: interior and near-boundary points alike surface as
        # NaN via the warning path.  The exact solve has two entry points,
        # the per-point one and the sweep prefetch's stacked one; break
        # both.
        def boom(self):
            raise ConvergenceError("forced failure for testing", residual=1.0)

        def broken_stack(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure for testing")

        monkeypatch.setattr(qbd.QbdProcess, "solve", boom)
        monkeypatch.setattr(batched, "solve_r_matrix_batched", broken_stack)
        rho_s = 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearBoundaryWarning)
            panels = figure6_panels(
                rho_s=rho_s,
                rho_l_values_short=[0.25, 0.999 * (2.0 - rho_s)],
                rho_l_values_long=[0.5],
                cases=EXPONENTIAL_CASES[:1],
            )
        shorts_panel = panels[0]
        cs_cq = shorts_panel.by_label("CS-Central-Q")
        assert np.isnan(cs_cq.y[0])  # interior: typed failure -> NaN
        assert np.isnan(cs_cq.y[1])  # near boundary: no fallback either
