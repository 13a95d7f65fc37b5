"""Tests for the numerical guards and their wiring through the stack."""

import numpy as np
import pytest

from repro.core import SystemParameters
from repro.distributions import Exponential, fit_phase_type
from repro.markov import Ctmc, QbdProcess
from repro.robustness import (
    IllConditionedError,
    NearBoundaryWarning,
    ValidationError,
    condest_1,
    conditioning_outcome,
    ensure_finite_array,
    ensure_finite_scalar,
    ensure_no_material_negatives,
    ensure_nonnegative_scalar,
    ensure_rate_block,
    spectral_radius,
)


class TestScalarGuards:
    def test_finite_passes(self):
        assert ensure_finite_scalar(1.5, "x") == 1.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValidationError):
            ensure_finite_scalar(bad, "x")

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError):
            ensure_finite_scalar("rate", "x")

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            ensure_nonnegative_scalar(-0.1, "x")


class TestArrayGuards:
    def test_rate_block_ok(self):
        out = ensure_rate_block([[0.0, 1.0], [2.0, 0.0]], "a")
        assert out.shape == (2, 2)

    def test_nan_entry_rejected_with_location(self):
        m = np.zeros((3, 3))
        m[1, 2] = np.nan
        with pytest.raises(ValidationError, match=r"\(1, 2\)"):
            ensure_rate_block(m, "a")

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            ensure_rate_block([[0.0, -1.0], [0.0, 0.0]], "a")

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValidationError):
            ensure_rate_block([1.0, 2.0], "a")

    def test_finite_array_inf_rejected(self):
        with pytest.raises(ValidationError):
            ensure_finite_array([1.0, np.inf], "v")


class TestNegativeMask:
    def test_noise_clipped(self):
        out = ensure_no_material_negatives(np.array([1.0, -1e-14]), "pi")
        assert out[1] == 0.0

    def test_material_negative_rejected_with_context(self):
        with pytest.raises(ValidationError) as info:
            ensure_no_material_negatives(np.array([1.0, -1e-3]), "pi")
        assert info.value.context["most_negative"] == pytest.approx(-1e-3)

    def test_scaling_is_relative(self):
        # -1e-6 is material against a unit vector but noise against 1e6.
        ensure_no_material_negatives(np.array([1e6, -1e-6]), "pi")
        with pytest.raises(ValidationError):
            ensure_no_material_negatives(np.array([1.0, -1e-6]), "pi")


class TestConditioning:
    def test_condition_number_identity(self):
        assert condest_1(np.eye(3)) == pytest.approx(1.0)

    def test_spectral_radius(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_warns_between_thresholds(self):
        cond = condest_1(np.diag([1.0, 1e-9]))  # cond 1e9
        error, warning = conditioning_outcome(cond, "M")
        assert error is None
        assert isinstance(warning, NearBoundaryWarning)

    def test_raises_above_error_threshold(self):
        cond = condest_1(np.diag([1.0, 1e-15]))
        error, warning = conditioning_outcome(cond, "M", spectral_radius_hint=0.9999)
        assert isinstance(error, IllConditionedError) and warning is None
        assert error.condition_number > 1e13
        assert error.spectral_radius == pytest.approx(0.9999)

    def test_clean_matrix_silent(self):
        cond = condest_1(np.eye(2))
        assert cond == pytest.approx(1.0)
        assert conditioning_outcome(cond, "M") == (None, None)


class TestWiring:
    """The guards must fire at the public entry points, not just in isolation."""

    def test_system_parameters_reject_nan_rate(self):
        with pytest.raises(ValidationError):
            SystemParameters(float("nan"), 0.5, Exponential(1.0), Exponential(1.0))

    def test_system_parameters_reject_inf_load(self):
        with pytest.raises(ValidationError):
            SystemParameters.from_loads(rho_s=float("inf"), rho_l=0.5)

    def test_qbd_rejects_nan_block(self):
        a0 = np.array([[np.nan]])
        with pytest.raises(ValidationError):
            QbdProcess(
                boundary_local=[np.zeros((1, 1))],
                boundary_up=[np.array([[0.5]])],
                boundary_down=[np.array([[1.0]])],
                a0=a0,
                a1=np.zeros((1, 1)),
                a2=np.array([[1.0]]),
            )

    def test_ctmc_rejects_nan_generator(self):
        with pytest.raises(ValidationError):
            Ctmc(np.array([[np.nan, 1.0], [1.0, 0.0]]), is_rate_matrix=True)

    def test_fitting_rejects_nan_moments(self):
        with pytest.raises(ValidationError):
            fit_phase_type(float("nan"), 2.0, 6.0)
