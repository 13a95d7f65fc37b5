"""Property-based tests for the numerical trust layer (PR 9).

Four families of invariants:

* **Bound algebra** — composed forward error bounds are nonnegative,
  monotone under residual (perturbation) scaling, and poison-safe (NaN
  inputs compose to ``inf``, never to a trusted-looking number).
* **Verdict mapping** — verdicts are total over ``None``/NaN/inf/finite
  bounds, monotone in the bound, and the vector form is elementwise
  identical to the scalar form.
* **Scalar/batched bit-identity** — the 1-norm condition estimator and
  the end-to-end sweep produce *bit-identical* trust verdicts and error
  bounds whether a point is solved alone or inside a prefetched stack.
* **Fault visibility** — an injected silent perturbation lands
  ``suspect``/``untrusted`` at the oracle, and the committed
  near-boundary escalation case demonstrably shrinks its bound.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts import OracleConfig, check_point
from repro.core import CsCqAnalysis, SystemParameters
from repro.orchestration import inject_faults
import repro.perf.batched as batched_mod
from repro.perf.cache import sweep_cache
from repro.robustness import (
    TRUST_LEVELS,
    TRUSTED_MAX,
    UNTRUSTED_MIN,
    compose_bound,
    condest_1,
    scale_tolerance,
    trust_verdict,
    trust_verdicts,
)
from repro.workloads import EXPONENTIAL_CASES

_RANK = {level: i for i, level in enumerate(TRUST_LEVELS)}

nonneg = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)
conds = st.floats(
    min_value=1.0, max_value=1e10, allow_nan=False, allow_infinity=False
)
bounds = st.one_of(
    st.none(),
    st.floats(min_value=0.0, max_value=1e30),
    st.just(float("nan")),
    st.just(float("inf")),
)


class TestComposeBound:
    @given(
        cond_b=conds,
        res_b=nonneg,
        scale_b=positive,
        cond_ir=conds,
        res_r=nonneg,
        scale_r=positive,
    )
    def test_nonnegative(self, cond_b, res_b, scale_b, cond_ir, res_r, scale_r):
        bound = compose_bound(cond_b, res_b, scale_b, cond_ir, res_r, scale_r)
        assert bound >= 0.0

    @given(
        cond_b=conds,
        res_b=nonneg,
        scale_b=positive,
        cond_ir=conds,
        res_r=nonneg,
        scale_r=positive,
        k=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_monotone_under_perturbation_scaling(
        self, cond_b, res_b, scale_b, cond_ir, res_r, scale_r, k
    ):
        """Scaling the backward errors up by k >= 1 never shrinks the bound
        (and therefore never improves the verdict)."""
        base = compose_bound(cond_b, res_b, scale_b, cond_ir, res_r, scale_r)
        scaled = compose_bound(
            cond_b, k * res_b, scale_b, cond_ir, k * res_r, scale_r
        )
        assert scaled >= base
        assert _RANK[trust_verdict(scaled)] >= _RANK[trust_verdict(base)]

    def test_nan_poisons_to_inf(self):
        for args in (
            (float("nan"), 0.0, 1.0, 1.0, 0.0, 1.0),
            (1.0, float("nan"), 1.0, 1.0, 0.0, 1.0),
            (1.0, 0.0, 1.0, float("nan"), 0.0, 1.0),
        ):
            assert compose_bound(*args) == float("inf")

    def test_stack_matches_scalars_bitwise(self):
        cond_b = np.array([1.0, 1e3, 1e8])
        res_b = np.array([0.0, 1e-12, 1e-6])
        cond_ir = np.array([2.0, 1e5, 1e9])
        res_r = np.array([1e-16, 1e-10, 1e-4])
        stacked = compose_bound(cond_b, res_b, 1.0, cond_ir, res_r, 1.0)
        for i in range(3):
            single = compose_bound(
                cond_b[i], res_b[i], 1.0, cond_ir[i], res_r[i], 1.0
            )
            assert stacked[i] == single  # bitwise, not approximately


class TestVerdictMapping:
    @given(bound=bounds)
    def test_total_over_all_inputs(self, bound):
        assert trust_verdict(bound) in TRUST_LEVELS

    @given(
        b1=st.floats(min_value=0.0, max_value=1e30),
        b2=st.floats(min_value=0.0, max_value=1e30),
    )
    def test_monotone_in_bound(self, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        assert _RANK[trust_verdict(lo)] <= _RANK[trust_verdict(hi)]

    def test_thresholds(self):
        assert trust_verdict(TRUSTED_MAX) == "trusted"
        assert trust_verdict(np.nextafter(TRUSTED_MAX, 1.0)) == "suspect"
        assert trust_verdict(UNTRUSTED_MIN) == "suspect"
        assert trust_verdict(np.nextafter(UNTRUSTED_MIN, 1.0)) == "untrusted"

    def test_missing_bound_is_untrusted(self):
        assert trust_verdict(None) == "untrusted"
        assert trust_verdict(float("nan")) == "untrusted"
        assert trust_verdict(float("inf")) == "untrusted"

    @given(
        vec=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1e30),
                st.just(float("nan")),
                st.just(float("inf")),
            ),
            min_size=1,
        )
    )
    def test_vector_matches_scalar(self, vec):
        arr = np.asarray(vec, dtype=float)
        assert trust_verdicts(arr) == [trust_verdict(float(b)) for b in arr]


class TestScaleTolerance:
    @given(base=positive, bound=bounds)
    def test_never_tightens(self, base, bound):
        assert scale_tolerance(base, bound) >= base

    @given(base=positive)
    def test_unknown_bound_is_identity(self, base):
        for bound in (None, float("nan"), float("inf"), 0.0, -1.0):
            assert scale_tolerance(base, bound) == base

    @given(base=positive, bound=st.floats(min_value=1e-30, max_value=1e6))
    def test_widens_by_exactly_the_bound(self, base, bound):
        assert scale_tolerance(base, bound) == base + bound


class TestCondestBitIdentity:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scalar_equals_stacked_slice(self, seed):
        """condest_1 of one matrix is bitwise equal to the matching slice
        of the stacked call — the arithmetic behind the scalar and batched
        solver paths is literally the same."""
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(4, 6, 6)) + 6.0 * np.eye(6)
        batched = condest_1(stack)
        for i in range(stack.shape[0]):
            assert condest_1(stack[i]) == batched[i]

    def test_identity_estimates_one(self):
        assert condest_1(np.eye(5)) == 1.0

    def test_singular_estimates_inf(self):
        assert condest_1(np.zeros((3, 3))) == float("inf")

    def test_nonfinite_estimates_inf(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        assert condest_1(a) == float("inf")


class TestSweepBitIdentity:
    def test_scalar_and_batched_verdicts_bit_identical(self, monkeypatch):
        """End to end: the same grid through the scalar per-point path and
        through the stacked-solve prefetch must yield identical trust
        verdicts AND bit-identical error bounds for every policy at every
        point."""
        from repro.experiments.figures import _POLICY_LABELS, _policy_point_values

        case = EXPONENTIAL_CASES[0]
        pairs = [(0.4, 0.5), (0.9, 0.5), (0.99 * 1.5, 0.5)]

        def sweep_diagnostics():
            with sweep_cache():
                batched_mod.prefetch_sweep_solutions(case, pairs, "short")
                return [
                    _policy_point_values(
                        case.params(rho_s, rho_l), "short", with_diagnostics=True
                    )[1]
                    for rho_s, rho_l in pairs
                ]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batched_diags = sweep_diagnostics()
            monkeypatch.setattr(
                batched_mod, "prefetch_sweep_solutions", lambda *args: None
            )
            scalar_diags = sweep_diagnostics()
        compared = 0
        for scalar_point, batched_point in zip(scalar_diags, batched_diags):
            for label in _POLICY_LABELS:
                s = (scalar_point or {}).get(label)
                b = (batched_point or {}).get(label)
                assert (s is None) == (b is None), label
                if s is None:
                    continue
                assert s["trust"] == b["trust"], label
                assert s["error_bound"] == b["error_bound"], label  # bitwise
                compared += 1
        assert compared >= 6  # all three policies at multiple points

    @pytest.mark.parametrize("job_class", ["short", "long"])
    def test_diagnostics_do_not_change_a_failed_point(self, job_class):
        """Asking for the trust record must not change a point's outcome:
        at this Coxian edge point the exact solves fail the negativity
        gate, and with diagnostics on the point must still come back as
        NaN with the same warnings, not re-run the failing solve and
        raise."""
        from repro.experiments.figures import _policy_point_values
        from repro.workloads import WorkloadCase

        params = WorkloadCase("a", long_scv=8.0).params((1 - 1e-8) * 1.7, 0.3)

        def evaluate(with_diagnostics):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                values, diagnostics = _policy_point_values(
                    params, job_class, with_diagnostics=with_diagnostics
                )
            return values, diagnostics, [type(w.message) for w in caught]

        plain_values, _, plain_warnings = evaluate(False)
        diag_values, diagnostics, diag_warnings = evaluate(True)
        assert repr(diag_values) == repr(plain_values)
        assert diag_warnings == plain_warnings
        for label, value in diag_values.items():
            assert (label in (diagnostics or {})) == bool(np.isfinite(value)), label


#: Cheap oracle budget (mirrors tests/test_oracle.py): decisive in seconds.
_CHEAP = OracleConfig(
    measured_jobs=3_000,
    warmup_jobs=500,
    n_replications=3,
    max_escalations=2,
    max_short=150,
    max_long=40,
)


class TestFaultVisibility:
    def test_clean_point_is_trusted(self):
        params = SystemParameters.from_loads(rho_s=0.3, rho_l=0.5)
        verdict = check_point(params, _CHEAP, label="trust rho_s=0.3")
        assert verdict.trust is not None
        assert verdict.trust["trust"] == "trusted"
        assert verdict.trust["error_bound"] is not None
        assert verdict.trust["error_bound"] < TRUSTED_MAX

    @pytest.mark.parametrize("factor", [1.5, 1.01])
    def test_perturb_fault_lands_suspect_or_untrusted(self, factor):
        """A silently perturbed solve must never keep a trusted verdict:
        the reported-vs-implied audit feeds the trust bound, so even a 1%
        perturbation (far below the oracle's 5% agreement tolerance)
        demotes the point."""
        params = SystemParameters.from_loads(rho_s=0.3, rho_l=0.5)
        with inject_faults(perturb=["trust rho_s=0.3"], perturb_factor=factor):
            verdict = check_point(params, _CHEAP, label="trust rho_s=0.3")
        assert verdict.perturbed
        assert verdict.trust is not None
        assert verdict.trust["trust"] in ("suspect", "untrusted")
        assert verdict.trust["audit_disagreement"] > 0.0

    def test_perturb_tolerance_not_widened_by_audit(self):
        """The audit disagreement must feed the *verdict*, never the
        agreement tolerance — a widened tolerance must excuse
        conditioning, not corruption — so the perturbed point still
        classifies suspect."""
        params = SystemParameters.from_loads(rho_s=0.3, rho_l=0.5)
        with inject_faults(perturb=["trust rho_s=0.3"], perturb_factor=1.5):
            verdict = check_point(params, _CHEAP, label="trust rho_s=0.3")
        assert verdict.classification == "suspect"


class TestPrecisionEscalation:
    def test_escalation_shrinks_bound_near_boundary(self):
        """Committed near-boundary case: at rho_s = (1 - 1e-8)(2 - rho_l)
        the first-pass bound lands suspect, the escalation rung (Newton
        polish + compensated boundary re-solve) runs, and the accepted
        bound is strictly smaller than the pre-escalation bound."""
        rho_l = 0.8
        rho_s = (1.0 - 1e-8) * (2.0 - rho_l)
        params = SystemParameters.from_loads(rho_s=rho_s, rho_l=rho_l)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            analysis = CsCqAnalysis(params)
            mean = analysis.mean_response_time_short()
        assert np.isfinite(mean) and mean > 0.0
        diag = analysis.solver_diagnostics
        assert diag.escalated
        assert diag.error_bound_before_escalation is not None
        assert diag.error_bound is not None
        assert diag.error_bound < diag.error_bound_before_escalation
        assert diag.trust in ("trusted", "suspect")

    def test_interior_point_does_not_escalate(self):
        params = SystemParameters.from_loads(rho_s=0.5, rho_l=0.5)
        analysis = CsCqAnalysis(params)
        analysis.mean_response_time_short()
        diag = analysis.solver_diagnostics
        assert not diag.escalated
        assert diag.trust == "trusted"
