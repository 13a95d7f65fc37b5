"""ScenarioQuery/ServiceAnswer serialization and the fidelity rungs."""

import math

import pytest

from repro.perf import SweepCache
from repro.robustness import ContractViolation
from repro.service import FIDELITY_LEVELS, POLICIES, ScenarioQuery, ServiceAnswer
from repro.service import fidelity as F


def _query(**overrides):
    fields = dict(rho_s=0.5, rho_l=0.5, case={"name": "a"}, threshold=2.5)
    fields.update(overrides)
    return ScenarioQuery(**fields)


class TestScenarioQuery:
    def test_round_trips_through_dict(self):
        query = _query(deadline=1.5, label="q1")
        assert ScenarioQuery.from_dict(query.as_dict()) == query

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown query field"):
            ScenarioQuery.from_dict({"rho_s": 0.5, "rho_l": 0.5, "rho_m": 0.1})

    def test_from_dict_requires_loads(self):
        with pytest.raises(ValueError, match="rho_s and rho_l"):
            ScenarioQuery.from_dict({"rho_s": 0.5})

    def test_named_case_resolves_to_paper_workload(self):
        case = _query().workload()
        assert case.mean_short == 1.0

    def test_custom_case_fields(self):
        query = _query(case={"mean_short": 2.0, "mean_long": 20.0,
                             "short_scv": 1.0, "long_scv": 1.0})
        case = query.workload()
        assert case.mean_short == 2.0 and case.mean_long == 20.0

    def test_labels(self):
        assert _query(label="mine").resolved_label() == "mine"
        derived = _query().resolved_label()
        assert "rho_s=0.5" in derived and "rho_l=0.5" in derived


class TestServiceAnswer:
    def test_degraded_flags_everything_below_exact(self):
        for level in FIDELITY_LEVELS:
            answer = ServiceAnswer(label="q", status="answered", fidelity=level)
            assert answer.answered
            assert answer.degraded == (level != "exact")

    def test_rejected_is_not_degraded(self):
        answer = ServiceAnswer(label="q", status="rejected")
        assert not answer.answered and not answer.degraded


class TestCoarseBounds:
    def test_bounds_bracket_the_exact_answer(self):
        query = _query()
        bounds = F.coarse_bounds(query)
        exact = F.exact_rung(query)
        for policy in POLICIES:
            assert bounds[policy]["stable"]
            assert bounds[policy]["lower"] <= exact[policy] <= bounds[policy]["upper"]

    def test_dedicated_upper_is_its_own_exact_value(self):
        # Dominance: the Dedicated M/G/1 closed form IS the Dedicated answer.
        query = _query()
        bounds = F.coarse_bounds(query)
        exact = F.exact_rung(query)
        assert exact["Dedicated"] == pytest.approx(bounds["Dedicated"]["upper"])

    def test_unstable_policies_are_marked(self):
        bounds = F.coarse_bounds(_query(rho_s=1.2, rho_l=0.3))
        assert not bounds["Dedicated"]["stable"]
        assert bounds["CS-CQ"]["stable"]  # cycle stealing extends the region
        assert math.isinf(bounds["CS-CQ"]["upper"])  # no finite dominance cap

    def test_bound_values_report_conservative_uppers(self):
        bounds = F.coarse_bounds(_query())
        values = F.bound_values(bounds)
        assert values["CS-CQ"] == bounds["CS-CQ"]["upper"]


class TestValidation:
    def test_accepts_values_inside_bounds(self):
        query = _query()
        F.validate_against_bounds(F.exact_rung(query), F.coarse_bounds(query))

    def test_rejects_grossly_inflated_values(self):
        query = _query()
        bounds = F.coarse_bounds(query)
        corrupted = {p: v * 100.0 for p, v in F.exact_rung(query).items()}
        with pytest.raises(ContractViolation, match="dominance bound"):
            F.validate_against_bounds(corrupted, bounds)

    def test_rejects_values_below_the_service_floor(self):
        query = _query()
        bounds = F.coarse_bounds(query)
        with pytest.raises(ContractViolation, match="service-time floor"):
            F.validate_against_bounds({"CS-CQ": 0.001}, bounds)

    def test_rejects_finite_value_for_unstable_policy(self):
        bounds = F.coarse_bounds(_query(rho_s=1.2, rho_l=0.3))
        with pytest.raises(ContractViolation, match="unstable"):
            F.validate_against_bounds({"Dedicated": 5.0}, bounds)

    def test_nonfinite_values_are_exempt(self):
        bounds = F.coarse_bounds(_query())
        F.validate_against_bounds(
            {"CS-ID": float("nan"), "CS-CQ": float("inf")}, bounds
        )


class TestRungs:
    def test_cached_rung_replays_only_stored_answers(self):
        query = _query()
        cache = SweepCache()
        assert F.cached_rung(query, cache) is None
        values = F.exact_rung(query)
        F.store_answer(query, values, cache)
        assert F.cached_rung(query, cache) == values
        assert F.cached_rung(query, None) is None

    def test_answer_key_ignores_phrasing(self):
        a = _query(label="one", threshold=1.0, deadline=9.0)
        b = _query(label="two", threshold=2.0, deadline=1.0)
        assert F.answer_key(a) == F.answer_key(b)
        assert F.answer_key(a) != F.answer_key(_query(rho_s=0.51))


class TestVerdict:
    def test_partitions_policies(self):
        bounds = F.coarse_bounds(_query())
        values = {"Dedicated": 3.0, "CS-ID": 1.5, "CS-CQ": float("nan")}
        verdict = F.verdict_for(values, bounds, threshold=2.0, fidelity="exact")
        assert verdict["meets"] == ["CS-ID"]
        assert verdict["fails"] == ["Dedicated"]
        assert verdict["unknown"] == ["CS-CQ"]

    def test_bound_fidelity_admits_uncertainty(self):
        # Upper bound overshoots but the interval straddles the threshold:
        # the coarse rung must answer "unknown", not "fails".
        query = _query()
        bounds = F.coarse_bounds(query)
        values = F.bound_values(bounds)
        threshold = (bounds["CS-CQ"]["lower"] + bounds["CS-CQ"]["upper"]) / 2.0
        verdict = F.verdict_for(values, bounds, threshold, fidelity="bound")
        assert "CS-CQ" in verdict["unknown"]
        exact_verdict = F.verdict_for(values, bounds, threshold, fidelity="exact")
        assert "CS-CQ" in exact_verdict["fails"]

    def test_no_threshold_no_verdict(self):
        bounds = F.coarse_bounds(_query())
        assert F.verdict_for({}, bounds, None, "exact") is None
