"""Tests for the invariant-contract registry and the built-in contracts."""

import warnings

import pytest

from repro.contracts import (
    ContractResult,
    check_monotone_series,
    contract,
    contracts_enabled,
    contracts_for,
    enforce,
    evaluate,
    point_dominance_results,
    registered_contracts,
    rel_diff,
)
from repro.core import CsCqAnalysis, CsCqTruncatedChain, SystemParameters
from repro.robustness import (
    ContractViolation,
    ContractViolationWarning,
    ReproError,
    ValidationError,
)
from repro.workloads import case_by_name


@pytest.fixture(scope="module")
def moderate_params():
    return SystemParameters.from_loads(rho_s=0.9, rho_l=0.5, mean_long=10.0)


@pytest.fixture(scope="module")
def moderate_analysis(moderate_params):
    return CsCqAnalysis(moderate_params)


class TestRelDiff:
    def test_basic(self):
        assert rel_diff(1.05, 1.0) == pytest.approx(0.05)

    def test_zero_reference_is_inf(self):
        assert rel_diff(1.0, 0.0) == float("inf")
        assert rel_diff(0.0, 0.0) == 0.0

    def test_nan_and_inf_are_inf(self):
        assert rel_diff(float("nan"), 1.0) == float("inf")
        assert rel_diff(1.0, float("inf")) == float("inf")

    def test_denormal_reference_does_not_raise(self):
        assert rel_diff(1.0, 5e-324) == float("inf")


class TestRegistry:
    def test_builtins_registered(self):
        names = {spec.name for spec in registered_contracts()}
        assert {
            "littles-law-short",
            "littles-law-long",
            "stationary-normalization",
            "truncation-mass",
            "dominance-short",
            "monotone-in-load",
        } <= names

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @contract("littles-law-short", "analysis", "dup")
            def _dup(subject):
                raise AssertionError("never evaluated")

    def test_contracts_for_filters_by_kind(self):
        for spec in contracts_for("solution"):
            assert spec.kind == "solution"
        assert contracts_for("solution")
        assert contracts_for("no-such-kind") == ()

    def test_evaluator_repro_error_becomes_failing_result(self):
        # Feed an object missing every field: evaluators must raise typed
        # errors, which evaluate() converts to failing results.
        class Broken:
            def total_mass(self):
                raise ValidationError("mass is not a number")

        results = evaluate(
            "solution", Broken(), names=["stationary-normalization"]
        )
        assert len(results) == 1
        assert not results[0].passed
        assert "ValidationError" in results[0].detail

    def test_enforce_raises_typed_violation(self):
        values = {"CS-Central-Q": 5.0, "CS-Immed-Disp": 1.0, "Dedicated": 2.0}
        with pytest.raises(ContractViolation) as excinfo:
            enforce("point", values, job_class="short")
        error = excinfo.value
        assert error.contract == "dominance-short"
        assert error.observed == 5.0
        assert isinstance(error, ReproError)

    def test_enabled_flag_reads_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CONTRACTS", raising=False)
        assert contracts_enabled()
        monkeypatch.setenv("REPRO_NO_CONTRACTS", "1")
        assert not contracts_enabled()


class TestAnalysisContracts:
    def test_all_pass_on_solved_point(self, moderate_analysis, moderate_params):
        results = evaluate(
            "analysis", moderate_analysis, params=moderate_params
        )
        assert results, "expected analysis contracts to apply"
        assert all(result.passed for result in results)
        names = {result.name for result in results}
        assert "littles-law-short" in names
        assert "short-throughput-balance" in names

    def test_all_pass_with_two_phase_shorts(self):
        """k = 2 (Erlang-2 shorts): the throughput balance weights each
        state by the exit rates of the shorts in service."""
        params = SystemParameters.from_loads(rho_s=0.9, rho_l=0.5, short_scv=0.5)
        analysis = CsCqAnalysis(params)
        assert analysis.k == 2
        results = evaluate("analysis", analysis, params=params)
        assert "short-throughput-balance" in {result.name for result in results}
        assert all(result.passed for result in results)

    @pytest.mark.parametrize("short_scv", [1.0, 0.5])
    def test_throughput_balance_catches_scaled_down_rates(self, short_scv):
        """Short completions in the repeating down block at 80% of the
        service distribution's exit rates: the chain still solves, but its
        departures no longer match the PH-weighted rate."""
        params = SystemParameters.from_loads(
            rho_s=0.6, rho_l=0.3, short_scv=short_scv
        )
        analysis = CsCqAnalysis(params)
        build = analysis._build_qbd

        def mutated():
            process = build()
            process.a2 = 0.8 * process.a2
            return process

        analysis._build_qbd = mutated
        (result,) = evaluate(
            "analysis", analysis, params=params, names=["short-throughput-balance"]
        )
        assert not result.passed

    def test_solution_contracts_pass(self, moderate_analysis):
        results = evaluate("solution", moderate_analysis.solution)
        assert {result.name for result in results} >= {
            "stationary-normalization",
            "nonnegative-probabilities",
            "tail-moment-consistency",
        }
        assert all(result.passed for result in results)

    def test_truncation_mass_contract(self, moderate_params):
        reference = CsCqTruncatedChain(
            moderate_params, max_short=200, max_long=40
        ).solve()
        (tight,) = evaluate("truncated", reference, tolerance=1e-6)
        assert tight.passed
        (loose,) = evaluate("truncated", reference, tolerance=0.0)
        assert not loose.passed


class TestDominanceContracts:
    def test_correct_ordering_passes(self):
        values = {"CS-Central-Q": 1.0, "CS-Immed-Disp": 2.0, "Dedicated": 3.0}
        results = point_dominance_results(values, "short")
        assert len(results) == 2 and all(r.passed for r in results)

    def test_violation_fails(self):
        values = {"CS-Central-Q": 3.0, "CS-Immed-Disp": 2.0, "Dedicated": 1.0}
        results = point_dominance_results(values, "short")
        assert any(not r.passed for r in results)

    def test_nan_link_is_skipped(self):
        values = {
            "CS-Central-Q": 1.0,
            "CS-Immed-Disp": float("nan"),
            "Dedicated": 0.5,
        }
        results = point_dominance_results(values, "short")
        assert results == []

    def test_long_ordering(self):
        values = {"Dedicated": 1.0, "CS-Central-Q": 2.0, "CS-Immed-Disp": 3.0}
        assert all(r.passed for r in point_dominance_results(values, "long"))
        swapped = {"Dedicated": 2.0, "CS-Central-Q": 1.0, "CS-Immed-Disp": 3.0}
        assert any(
            not r.passed for r in point_dominance_results(swapped, "long")
        )


class TestMonotoneSeries:
    def test_nondecreasing_passes(self):
        results = check_monotone_series([1, 2, 3], [1.0, 1.0, 2.0])
        assert all(r.passed for r in results)

    def test_dip_fails_with_location(self):
        results = check_monotone_series(
            [1, 2, 3], [1.0, 5.0, 2.0], label="demo"
        )
        failed = [r for r in results if not r.passed]
        assert len(failed) == 1
        assert "x=3" in failed[0].detail and "demo" in failed[0].detail

    def test_nan_breaks_the_chain(self):
        # 5.0 -> NaN -> 2.0 must not compare 5.0 against 2.0.
        results = check_monotone_series([1, 2, 3], [5.0, float("nan"), 2.0])
        assert all(r.passed for r in results)


class TestSweepHooks:
    def test_point_values_warn_on_violation(self, monkeypatch):
        """A corrupted policy value at a sweep point raises the warning."""
        from repro.experiments import figures

        original = figures.DedicatedAnalysis

        class Corrupted(original):
            def mean_response_time_short(self):
                return super().mean_response_time_short() / 10.0

        monkeypatch.setattr(figures, "DedicatedAnalysis", Corrupted)
        params = SystemParameters.from_loads(rho_s=0.5, rho_l=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            figures._policy_point_values(params, "short")
        violations = [
            w for w in caught if isinstance(w.message, ContractViolationWarning)
        ]
        assert violations
        assert "dominance-short" in str(violations[0].message)

    def test_no_contracts_env_disables_hook(self, monkeypatch):
        from repro.experiments import figures

        original = figures.DedicatedAnalysis

        class Corrupted(original):
            def mean_response_time_short(self):
                return super().mean_response_time_short() / 10.0

        monkeypatch.setattr(figures, "DedicatedAnalysis", Corrupted)
        monkeypatch.setenv("REPRO_NO_CONTRACTS", "1")
        params = SystemParameters.from_loads(rho_s=0.5, rho_l=0.5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            figures._policy_point_values(params, "short")
        assert not any(
            isinstance(w.message, ContractViolationWarning) for w in caught
        )

    def test_series_hook_catches_dip(self, monkeypatch):
        from repro.experiments import figures
        from repro.workloads import case_by_name

        calls = {"n": 0}
        original = figures._policy_point_values

        def corrupting(params, job_class, with_diagnostics=False):
            values, diagnostics = original(params, job_class, with_diagnostics)
            calls["n"] += 1
            if calls["n"] == 2:  # dent the middle of every curve
                values = {k: v / 100.0 for k, v in values.items()}
            return values, diagnostics

        monkeypatch.setattr(figures, "_policy_point_values", corrupting)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            figures.response_time_series(
                case_by_name("a"), [0.3, 0.5, 0.7], 0.5, "short"
            )
        messages = [
            str(w.message)
            for w in caught
            if isinstance(w.message, ContractViolationWarning)
        ]
        assert any("monotone-in-load" in m for m in messages)

    def test_clean_sweep_emits_no_warnings(self):
        from repro.experiments import figures
        from repro.workloads import case_by_name

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            figures.response_time_series(
                case_by_name("a"), [0.3, 0.6, 0.9], 0.5, "short"
            )
            figures.response_time_series(
                case_by_name("a"), [0.3, 0.6, 0.9], 0.5, "long"
            )
        assert not any(
            isinstance(w.message, ContractViolationWarning) for w in caught
        )


class TestContractViolationError:
    def test_context_round_trip(self):
        result = ContractResult(
            name="demo",
            passed=False,
            observed=2.0,
            expected=1.0,
            tolerance=0.1,
            detail="synthetic",
        )
        error = result.as_violation()
        assert error.contract == "demo"
        assert error.expected == 1.0
        assert error.tolerance == 0.1
        assert "synthetic" in str(error)

    def test_as_dict_is_jsonable(self):
        import json

        result = ContractResult(
            name="demo", passed=True, observed=1.0, expected=1.0, tolerance=0.0
        )
        assert json.loads(json.dumps(result.as_dict()))["name"] == "demo"


class TestSimulationContracts:
    def test_pass_on_real_run(self, moderate_params):
        from repro.simulation import simulate

        result = simulate(
            "cs-cq",
            moderate_params,
            seed=7,
            warmup_jobs=500,
            measured_jobs=4_000,
        )
        results = evaluate("simulation", result, params=moderate_params)
        assert results and all(r.passed for r in results)
        assert {r.name for r in results} >= {
            "sim-response-decomposition-short",
            "sim-summary-sane",
        }

    def test_decomposition_catches_shifted_waiting(self, moderate_params):
        from repro.simulation import simulate

        result = simulate(
            "cs-cq",
            moderate_params,
            seed=7,
            warmup_jobs=500,
            measured_jobs=4_000,
        )
        # A summary whose waiting time was mis-measured by 50% of E[X]
        # breaks response = waiting + service.
        import dataclasses

        broken = dataclasses.replace(
            result,
            mean_waiting_short=result.mean_waiting_short + 0.5,
        )
        results = evaluate("simulation", broken, params=moderate_params)
        failed = {r.name for r in results if not r.passed}
        assert "sim-response-decomposition-short" in failed


def _per_level_tail_moment(solution):
    """Reference for ``tail-moment-consistency``: the plain level-by-level
    loop (one ``vector @ R`` per level) with the same stop rule and cap.
    Returns ``(partial, closed, level, mass)``, or None above the cut-off."""
    import numpy as np

    if float(solution.tail_spectral_radius) > 0.9995:
        return None
    partial = 0.0
    mass = 0.0
    for level, vector in enumerate(solution.boundary_pi):
        contribution = float(vector.sum())
        partial += level * contribution
        mass += contribution
    vector = np.array(solution.pi_repeat, dtype=float)
    level = solution.first_repeating_level
    while mass < 1.0 - 1e-13 and level < 200_000:
        contribution = float(vector.sum())
        partial += level * contribution
        mass += contribution
        vector = vector @ solution.r_matrix
        level += 1
    return partial, solution.mean_level(), level, mass


def _tail_result(solution):
    results = evaluate("solution", solution, names=["tail-moment-consistency"])
    return results[0] if results else None


def _summed_levels(result):
    return int(result.detail.split()[1])


@pytest.fixture(scope="module")
def sweep_solutions():
    """Every QBD solution of a default figure 6 grid (Coxian longs, C^2 = 8:
    sp(R) up to about 0.999) plus a few figure 4 and 5 points."""
    import numpy as np

    from repro.experiments.figures import (
        figure4_panels,
        figure5_panels,
        figure6_panels,
    )
    from repro.perf import sweep_cache

    solutions = {}
    for name, run in (
        ("figure 6", lambda: figure6_panels()),
        ("figure 4", lambda: figure4_panels(rho_s_values=[0.3, 1.2, 1.45])),
        ("figure 5", lambda: figure5_panels(rho_s_values=[0.6, 1.4])),
    ):
        with sweep_cache() as cache:
            run()
            solutions[name] = cache.values("analysis-solution")
    assert len(solutions["figure 6"]) >= 50
    assert max(s.tail_spectral_radius for s in solutions["figure 6"]) > 0.998
    assert all(np.isfinite(s.tail_spectral_radius) for v in solutions.values() for s in v)
    return solutions


class TestTailMomentWalk:
    """The blocked tail walk of ``tail-moment-consistency`` against the
    plain per-level loop it replaces."""

    @pytest.mark.parametrize("figure", ["figure 6", "figure 4", "figure 5"])
    def test_matches_per_level_loop(self, sweep_solutions, figure):
        for solution in sweep_solutions[figure]:
            reference = _per_level_tail_moment(solution)
            result = _tail_result(solution)
            if reference is None:
                assert result is None
                continue
            partial, closed, _, _ = reference
            assert result.passed == (rel_diff(partial, closed) <= result.tolerance)
            assert result.passed
            assert rel_diff(result.observed, partial) <= 1e-9
            assert result.expected == closed

    def test_near_cutoff_point_is_walked(self):
        # sp(R) = 0.99946, just below the cut-off: about 60,000 levels.
        params = case_by_name("a").params(0.9993 * 1.5, 0.5)
        solution = CsCqAnalysis(params).solution
        assert 0.999 < solution.tail_spectral_radius <= 0.9995
        partial, _, level, _ = _per_level_tail_moment(solution)
        result = _tail_result(solution)
        assert result.passed
        assert rel_diff(result.observed, partial) <= 1e-9
        assert abs(_summed_levels(result) - level) < 1_000

    def test_above_cutoff_returns_none(self):
        params = case_by_name("a").params(0.9995 * 1.5, 0.5)
        solution = CsCqAnalysis(params).solution
        assert 0.9995 < solution.tail_spectral_radius < 0.9997
        assert _tail_result(solution) is None

    def test_mass_short_of_one_stops_at_the_level_cap(self, moderate_analysis):
        import dataclasses

        solution = moderate_analysis.solution
        scale = 1.0 - 1e-10
        short = dataclasses.replace(
            solution,
            boundary_pi=[v * scale for v in solution.boundary_pi],
            pi_repeat=solution.pi_repeat * scale,
        )
        # The cap falls inside a block, so the walk must stop mid-block.
        assert (200_000 - short.first_repeating_level) % 256 != 0
        result = _tail_result(short)
        partial, _, level, mass = _per_level_tail_moment(short)
        assert level == 200_000
        assert _summed_levels(result) == 200_000
        assert mass < 1.0 - 1e-13
        assert result.passed
        assert rel_diff(result.observed, partial) <= 1e-9

    def test_forged_solutions_are_rejected_on_store_read(
        self, moderate_analysis, tmp_path, monkeypatch
    ):
        import dataclasses

        from repro.perf.store import ResultStore
        from repro.robustness import StoreCorruptionError

        monkeypatch.delenv("REPRO_NO_CONTRACTS", raising=False)
        solution = moderate_analysis.solution
        store = ResultStore(tmp_path / "store")
        forged = {
            "pi": dataclasses.replace(solution, pi_repeat=solution.pi_repeat * 3.0),
            "r": dataclasses.replace(solution, r_matrix=solution.r_matrix * 0.99),
        }
        # In memory the forged R leaves (I - R)^{-1}, and so the mass, as
        # solved: only the level-by-level walk sees that R does not match.
        (normalization,) = evaluate(
            "solution", forged["r"], names=["stationary-normalization"]
        )
        assert normalization.passed
        for key, value in forged.items():
            assert not _tail_result(value).passed
            store.put("analysis-solution", key, value)
            with pytest.raises(StoreCorruptionError) as excinfo:
                store.get("analysis-solution", key)
            assert excinfo.value.reason == "contract-violation"
