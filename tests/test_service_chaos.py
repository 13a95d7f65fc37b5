"""Chaos harness for the query service.

One batch, concurrency >= 4, with crash / hang / perturb / numerical
faults injected at once, asserting the service's three survival
guarantees end to end:

1. **No query is lost** — exactly one answer per submitted query, every
   one either answered or explicitly rejected.
2. **Deadlines hold** — every answered query finished inside its budget
   (plus the bookkeeping slack the answer contracts allow).
3. **Fidelity is honest** — a corrupted exact solve (``perturb``) must
   degrade to a lower rung, never ship mis-tagged as ``exact``; the
   ``service-answer`` contracts hold for every answer; and the manifest's
   shed/degraded/retried/tripped totals match the telemetry counters.

This is the test the CI ``service-smoke`` job runs.
"""

import pytest

from repro.contracts import evaluate
from repro.orchestration import inject_faults
from repro.robustness import CircuitBreaker
from repro.service import QueryService, ScenarioQuery
from repro.service.chaos import reset_crash_counts
from repro.telemetry import registry

#: Matches contracts/answers.py: the deadline bounds solver work; final
#: bookkeeping may add this much.
DEADLINE_SLACK = 0.25

DEFAULT_DEADLINE = 5.0


def _case(name="a", **overrides):
    fields = dict(rho_s=0.5, rho_l=0.5, case={"name": name})
    fields.update(overrides)
    return ScenarioQuery(**fields)


def _chaos_batch():
    """16 queries: clean, hanging, crashing, silently-corrupted, broken
    region, and deliberate overload at the tail."""
    clean = [
        _case(label=f"clean-{i}", rho_s=0.3 + 0.05 * i, threshold=2.5)
        for i in range(4)
    ]
    hang = [
        _case(label=f"hang-{i}", rho_s=0.55 + 0.01 * i, deadline=0.8)
        for i in range(2)
    ]
    crash = [
        _case(label=f"crash-{i}", rho_s=0.65 + 0.01 * i) for i in range(2)
    ]
    perturb = [
        _case(label=f"perturb-{i}", rho_s=0.45 + 0.01 * i) for i in range(2)
    ]
    # Three failures in one 0.1-load bucket: enough to trip the breaker.
    trip = [
        _case(label=f"trip-{i}", rho_s=0.85 + 0.01 * i, rho_l=0.85)
        for i in range(3)
    ]
    shed = [_case(label=f"shed-{i}", rho_s=0.35 + 0.01 * i) for i in range(3)]
    return clean + hang + crash + perturb + trip + shed


@pytest.fixture()
def chaos_run(tmp_path):
    registry().reset()
    reset_crash_counts()
    queries = _chaos_batch()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=60.0)
    with inject_faults(
        hang=["hang-"],
        crash=["crash-"],
        perturb=["perturb-"],
        numerical=["trip-"],
        hang_seconds=3.0,
        perturb_factor=100.0,
    ):
        with QueryService(
            workers=4,
            queue_limit=len(queries) - 3,  # exactly the shed-* tail overflows
            default_deadline=DEFAULT_DEADLINE,
            breaker=breaker,
            name="chaos",
        ) as service:
            answers = service.run_batch(queries)
            manifest = service.build_manifest(answers)
            path = service.write_manifest(answers, tmp_path / "SERVICE_chaos.json")
    registry().reset()
    reset_crash_counts()
    return queries, answers, manifest, path


def _by_label(answers):
    return {a.label: a for a in answers}


class TestSurvival:
    def test_no_query_lost(self, chaos_run):
        queries, answers, _, _ = chaos_run
        assert len(answers) == len(queries)
        assert sorted(a.label for a in answers) == sorted(
            q.resolved_label() for q in queries
        )
        assert all(a.status in ("answered", "rejected") for a in answers)

    def test_every_query_finished_within_its_deadline(self, chaos_run):
        _, answers, _, _ = chaos_run
        for answer in answers:
            budget = answer.deadline if answer.deadline is not None else DEFAULT_DEADLINE
            assert answer.elapsed <= budget + DEADLINE_SLACK, answer.label

    def test_overload_was_shed_with_retry_hints(self, chaos_run):
        _, answers, _, _ = chaos_run
        by_label = _by_label(answers)
        for i in range(3):
            shed = by_label[f"shed-{i}"]
            assert shed.status == "rejected"
            assert shed.error["type"] == "ServiceOverloadError"
            assert "retry_after" in shed.error["context"]


class TestGracefulDegradation:
    def test_clean_queries_answer_exact(self, chaos_run):
        _, answers, _, _ = chaos_run
        by_label = _by_label(answers)
        for i in range(4):
            assert by_label[f"clean-{i}"].fidelity == "exact"

    def test_hangs_degrade_within_the_deadline(self, chaos_run):
        _, answers, _, _ = chaos_run
        by_label = _by_label(answers)
        for i in range(2):
            answer = by_label[f"hang-{i}"]
            assert answer.status == "answered"
            assert answer.fidelity == "bound"
            assert answer.elapsed <= 0.8 + DEADLINE_SLACK
            assert answer.attempts[0]["outcome"] in ("timeout", "skipped")

    def test_transient_crashes_recover_via_retry(self, chaos_run):
        _, answers, _, _ = chaos_run
        by_label = _by_label(answers)
        for i in range(2):
            answer = by_label[f"crash-{i}"]
            assert answer.status == "answered"
            assert answer.fidelity == "exact"
            assert answer.retries >= 1

    def test_breaker_tripped_for_the_failing_region(self, chaos_run):
        _, answers, manifest, _ = chaos_run
        assert manifest["totals"]["tripped"] >= 1
        by_label = _by_label(answers)
        for i in range(3):
            answer = by_label[f"trip-{i}"]
            assert answer.status == "answered"
            assert answer.degraded
        states = manifest["breaker"]["keys"]
        assert any(entry["state"] == "open" for entry in states.values())


class TestHonesty:
    def test_corrupted_solves_are_not_served_as_exact(self, chaos_run):
        _, answers, _, _ = chaos_run
        by_label = _by_label(answers)
        for i in range(2):
            answer = by_label[f"perturb-{i}"]
            assert answer.status == "answered"
            assert answer.fidelity != "exact", "mis-tagged corrupted answer"
            exact_attempt = answer.attempts[0]
            assert exact_attempt["rung"] == "exact"
            assert exact_attempt["outcome"] == "failed"
            assert exact_attempt["error"]["type"] == "ContractViolation"

    def test_answer_contracts_hold_for_every_answer(self, chaos_run):
        _, answers, _, _ = chaos_run
        for answer in answers:
            for result in evaluate("service-answer", answer):
                assert result.passed, (
                    f"{answer.label}: {result.name}: {result.detail}"
                )

    def test_manifest_counts_match_telemetry_counters(self, chaos_run):
        _, _, manifest, _ = chaos_run
        totals = manifest["totals"]
        telemetry = manifest["telemetry"]
        assert totals["submitted"] == telemetry["service.submitted"] == 16
        assert totals["answered"] == telemetry["service.answered"]
        assert totals["shed"] == telemetry["service.shed"] == 3
        assert totals["rejected"] == telemetry["service.rejected"] == 0
        assert totals["degraded"] == telemetry["service.degraded"]
        assert totals["retried"] == telemetry["service.retried"]
        assert totals["retried"] >= 2  # one retry per transient crash
        assert totals["degraded"] >= 7  # hangs + perturbs + tripped region

    def test_manifest_artifact_is_parseable_and_complete(self, chaos_run):
        import json

        queries, _, manifest, path = chaos_run
        on_disk = json.loads(path.read_text())
        assert on_disk["totals"] == manifest["totals"]
        assert len(on_disk["queries"]) == len(queries)
        assert {row["label"] for row in on_disk["queries"]} == {
            q.resolved_label() for q in queries
        }
