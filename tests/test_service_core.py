"""QueryService behavior: admission, deadlines, breaker, cache, manifest."""

import asyncio
import functools
import json
import sys

import pytest

import repro.contracts
import repro.service.service as service_module
from repro.contracts import contracts_for
from repro.core import CsCqAnalysis, CsIdAnalysis, DedicatedAnalysis
from repro.orchestration import DeadlineBudget, inject_faults
from repro.perf import SweepCache
from repro.robustness import CircuitBreaker, ServiceOverloadError
from repro.service import QueryService, ScenarioQuery
from repro.service.chaos import reset_crash_counts
from repro.telemetry import registry


@pytest.fixture(autouse=True)
def _fresh_registry():
    registry().reset()
    yield
    registry().reset()


def _query(**overrides):
    fields = dict(rho_s=0.5, rho_l=0.5, case={"name": "a"}, threshold=2.5)
    fields.update(overrides)
    return ScenarioQuery(**fields)


class TestHappyPath:
    def test_answers_at_exact_fidelity(self):
        with QueryService(workers=2, name="t") as service:
            (answer,) = service.run_batch([_query(label="q")])
        assert answer.status == "answered"
        assert answer.fidelity == "exact"
        assert not answer.degraded
        assert answer.verdict["meets"] == ["Dedicated", "CS-ID", "CS-CQ"]
        assert [a["rung"] for a in answer.attempts] == ["exact"]
        assert answer.elapsed <= 5.0

    def test_exact_answers_populate_the_shared_cache(self):
        cache = SweepCache()
        with QueryService(workers=2, cache=cache, name="t") as service:
            service.run_batch([_query()])
        assert len(cache) == 1

    def test_unstable_point_still_answers(self):
        with QueryService(workers=2, name="t") as service:
            (answer,) = service.run_batch(
                [_query(rho_s=1.2, rho_l=0.3, threshold=None)]
            )
        assert answer.status == "answered"
        assert answer.values["Dedicated"] == float("inf")
        assert answer.values["CS-CQ"] < float("inf")

    def test_malformed_point_is_rejected_not_crashed(self):
        with QueryService(workers=2, name="t") as service:
            (answer,) = service.run_batch(
                [_query(case={"name": "no-such-case"})]
            )
        assert answer.status == "rejected"
        assert answer.error["type"] == "KeyError"
        assert registry().counter("service.rejected") == 1


class TestPhaseTypeShorts:
    @pytest.mark.parametrize("short_scv", [0.5, 4.0])
    def test_answered_exactly_with_every_contract(self, monkeypatch, short_scv):
        """Non-exponential shorts are answered by the exact rung: the same
        values as a direct analysis, every analysis contract evaluated and
        passing."""
        monkeypatch.delenv("REPRO_NO_CONTRACTS", raising=False)
        evaluated = []
        evaluate = repro.contracts.evaluate

        def spy(kind, subject, *args, **kwargs):
            results = evaluate(kind, subject, *args, **kwargs)
            if kind == "analysis":
                evaluated.append((type(subject), results))
            return results

        monkeypatch.setattr(repro.contracts, "evaluate", spy)
        case = {"mean_short": 1.0, "mean_long": 1.0, "short_scv": short_scv, "long_scv": 1.0}
        query = ScenarioQuery(rho_s=0.9, rho_l=0.5, case=case, label="ph-shorts")
        with QueryService(workers=2, name="t") as service:
            (answer,) = service.run_batch([query])
        assert answer.status == "answered"
        assert answer.fidelity == "exact"
        params = query.workload().params(0.9, 0.5)
        assert params.short_service.as_phase_type().n_phases == 2
        for policy, cls in (("CS-ID", CsIdAnalysis), ("CS-CQ", CsCqAnalysis)):
            assert answer.values[policy] == cls(params).mean_response_time_short()
        names = {
            cls: {result.name for result in results if result.passed}
            for cls, results in evaluated
        }
        assert all(result.passed for _, results in evaluated for result in results)
        assert names[CsCqAnalysis] == {spec.name for spec in contracts_for("analysis")}
        assert names[CsIdAnalysis] == {"littles-law-short", "littles-law-long"}


@pytest.fixture
def frozen_budget_clock(monkeypatch):
    """Query budgets on a clock that stands still.

    Which rungs a tiny deadline reaches then depends on the deadline
    alone, not on how long thread hand-offs take on a loaded machine:
    the exact rung solves nothing (budget below ``EXACT_MIN_BUDGET``),
    a worker rung answers within its real-time timeout or is abandoned,
    and the closed-form floor always still has budget.
    """
    monkeypatch.setattr(
        service_module,
        "DeadlineBudget",
        functools.partial(DeadlineBudget, clock=lambda: 0.0),
    )


class TestLateCoordinator:
    """The coordinator resumes only after the budget ran out.

    The exact rung moves the budget clock to ``overrun`` seconds past the
    deadline and fails, as an abandoned rung whose timeout fired late on
    a loaded machine would leave it.  The bounds are already computed, so
    the ladder answers from them while the overrun is inside the answer
    contract's slack, and rejects the query beyond it.
    """

    def _answer_after(self, monkeypatch, overrun):
        now = [0.0]
        monkeypatch.setattr(
            service_module,
            "DeadlineBudget",
            functools.partial(DeadlineBudget, clock=lambda: now[0]),
        )

        def late_exact(query):
            now[0] = 0.8 + overrun
            raise RuntimeError("worker came back late")

        monkeypatch.setattr(service_module.F, "exact_rung", late_exact)
        with QueryService(workers=2, name="t") as service:
            (answer,) = service.run_batch([_query(deadline=0.8)])
        return answer

    def test_overrun_inside_the_slack_answers_from_the_bound(self, monkeypatch):
        answer = self._answer_after(monkeypatch, overrun=0.008)
        assert answer.status == "answered"
        assert answer.fidelity == "bound"
        assert answer.elapsed == pytest.approx(0.808)
        assert [a["outcome"] for a in answer.attempts] == ["failed", "accepted"]

    def test_overrun_beyond_the_slack_is_rejected(self, monkeypatch):
        answer = self._answer_after(monkeypatch, overrun=0.3)
        assert answer.status == "rejected"
        assert answer.error["type"] == "DeadlineExceededError"
        assert answer.attempts[-1]["outcome"] == "skipped"


@pytest.mark.usefixtures("frozen_budget_clock")
class TestDeadlines:
    def test_tiny_deadline_degrades_to_the_bound_rung(self):
        # Far too small for a QBD solve, large enough for closed forms.
        with QueryService(workers=2, name="t") as service:
            (answer,) = service.run_batch([_query(deadline=0.04)])
        assert answer.status == "answered"
        assert answer.fidelity == "bound"
        assert answer.degraded
        assert answer.elapsed <= 0.04 + 0.25
        assert registry().counter("service.degraded") == 1

    def test_tiny_deadline_uses_cache_when_warm(self):
        cache = SweepCache()
        with QueryService(workers=2, cache=cache, name="t") as service:
            warm = service.run_batch([_query(label="warm")])
            assert warm[0].fidelity == "exact"
            (answer,) = service.run_batch([_query(label="rushed", deadline=0.04)])
        assert answer.fidelity == "exact"
        assert [a["rung"] for a in answer.attempts] == ["exact"]
        assert answer.attempts[0]["replayed"] is True
        assert answer.values == warm[0].values

    def test_deadline_attempt_log_shows_the_descent(self):
        with QueryService(workers=2, name="t") as service:
            (answer,) = service.run_batch([_query(deadline=0.04)])
        rungs = [a["rung"] for a in answer.attempts]
        assert rungs[0] == "exact"
        assert rungs[-1] == answer.fidelity
        skipped = [a for a in answer.attempts if a["outcome"] == "skipped"]
        assert skipped, "cheap rungs must record why expensive ones were skipped"


class TestMemoizedExactRung:
    """A point already answered exactly is replayed by the exact rung.

    The coordinator looks the point up before the breaker and before any
    worker runs, so worker faults (crash, hang, numerical) fire only on
    points that are solved; perturbation and bounds validation run on
    every answer, replayed or solved.
    """

    def _warm(self, service):
        (first,) = service.run_batch([_query(label="first")])
        assert first.fidelity == "exact"
        assert "replayed" not in first.attempts[0]
        return first

    def test_repeat_is_replayed_as_exact(self):
        cache = SweepCache()
        with QueryService(workers=2, cache=cache, name="t") as service:
            first = self._warm(service)
            solves = registry().counter("qbd.solves")
            (repeat,) = service.run_batch([_query(label="repeat")])
        assert repeat.status == "answered"
        assert repeat.fidelity == "exact"
        assert repeat.values == first.values
        assert [a["rung"] for a in repeat.attempts] == ["exact"]
        assert repeat.attempts[0]["replayed"] is True
        assert registry().counter("qbd.solves") == solves
        counts = cache.stats()["by_namespace"]["service-answer"]
        assert (counts["hits"], counts["misses"]) == (1, 1)

    def test_concurrent_repeats_share_one_memo(self):
        """Workers look up and publish answers concurrently: every query
        makes exactly one memo lookup, and every repeat of a point gets
        the same values."""
        points = [dict(rho_s=0.3 + 0.2 * i, rho_l=0.5) for i in range(3)]
        queries = [
            _query(label=f"stress-{i}", **points[i % len(points)])
            for i in range(24)
        ]
        cache = SweepCache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(
                workers=8, queue_limit=len(queries), cache=cache, name="t"
            ) as service:
                answers = service.run_batch(queries)
        finally:
            sys.setswitchinterval(interval)
        assert all(a.fidelity == "exact" for a in answers)
        for i, answer in enumerate(answers):
            assert answer.values == answers[i % len(points)].values
        counts = cache.stats()["by_namespace"]["service-answer"]
        assert counts["hits"] + counts["misses"] == len(queries)
        assert counts["misses"] >= len(points)
        assert len(cache) == len(points)

    def _assert_replayed(self, answer, first):
        assert answer.fidelity == "exact"
        assert answer.retries == 0
        assert [(a["rung"], a["outcome"]) for a in answer.attempts] == [
            ("exact", "accepted")
        ]
        assert answer.attempts[0]["replayed"] is True
        assert answer.values == first.values

    def test_crash_on_a_memoized_point_is_retried(self):
        """A crash armed on a memoized point never fires: the replay comes
        before any worker, so there is nothing to retry."""
        reset_crash_counts()
        cache = SweepCache()
        with QueryService(workers=2, cache=cache, name="t") as service:
            first = self._warm(service)
            with inject_faults(crash=["crash-memo"]):
                (answer,) = service.run_batch([_query(label="crash-memo")])
        reset_crash_counts()
        self._assert_replayed(answer, first)

    def test_hang_on_a_memoized_point_falls_back_to_cached(self):
        """A hang armed on a memoized point never fires: the exact rung
        replays the memo well inside the deadline, with no fallback."""
        cache = SweepCache()
        with QueryService(workers=2, cache=cache, name="t") as service:
            first = self._warm(service)
            with inject_faults(hang=["hang-memo"], hang_seconds=1.0):
                (answer,) = service.run_batch(
                    [_query(label="hang-memo", deadline=0.3)]
                )
        self._assert_replayed(answer, first)
        assert answer.elapsed < 0.3

    def test_perturbed_replay_fails_the_exact_rung(self):
        cache = SweepCache()
        with QueryService(workers=2, cache=cache, name="t") as service:
            first = self._warm(service)
            with inject_faults(perturb=["perturb-memo"], perturb_factor=100.0):
                (answer,) = service.run_batch([_query(label="perturb-memo")])
        assert answer.fidelity == "bound"
        exact_attempt = answer.attempts[0]
        assert exact_attempt["outcome"] == "failed"
        assert exact_attempt["error"]["type"] == "ContractViolation"
        assert answer.values != first.values

    def test_perturbed_answer_is_never_memoized(self):
        cache = SweepCache()
        point = dict(rho_s=0.9, rho_l=0.7)
        with QueryService(workers=2, cache=cache, name="t") as service:
            with inject_faults(perturb=["perturb-memo"], perturb_factor=100.0):
                (perturbed,) = service.run_batch(
                    [_query(label="perturb-memo", **point)]
                )
            assert perturbed.fidelity != "exact"
            key = service_module.F.answer_key(_query(**point))
            assert not cache.contains("service-answer", key)
            (clean,) = service.run_batch([_query(label="clean", **point)])
        assert clean.fidelity == "exact"
        assert "replayed" not in clean.attempts[0]
        params = _query(**point).workload().params(0.9, 0.7)
        assert clean.values == {
            "Dedicated": DedicatedAnalysis(params).mean_response_time_short(),
            "CS-ID": CsIdAnalysis(params).mean_response_time_short(),
            "CS-CQ": CsCqAnalysis(params).mean_response_time_short(),
        }


class TestFailedExactSolve:
    def test_edge_point_is_answered_from_the_bound_quickly(self):
        # Case a at 1 - 1e-8 of the CS-CQ boundary: the exact solve fails
        # its boundary gate in milliseconds, and the bound answers at once
        # (no approximate chain is solved in between).
        query = _query(rho_s=(1.0 - 1e-8) * 1.5, rho_l=0.5, label="edge")
        with QueryService(workers=2, name="t") as service:
            (answer,) = service.run_batch([query])
        assert answer.status == "answered"
        assert answer.fidelity == "bound"
        assert [(a["rung"], a["outcome"]) for a in answer.attempts] == [
            ("exact", "failed"), ("bound", "accepted")
        ]
        assert answer.attempts[0]["error"]["type"] == "ValidationError"
        assert answer.elapsed < 1.0


class TestAdmissionControl:
    def test_submit_sheds_beyond_the_queue_limit(self):
        async def scenario():
            service = QueryService(workers=1, queue_limit=1, name="t")
            try:
                slow = asyncio.create_task(
                    service.submit(_query(label="occupant", deadline=2.0))
                )
                await asyncio.sleep(0.05)  # let it occupy the only slot
                with pytest.raises(ServiceOverloadError) as info:
                    await service.submit(_query(label="shed-me"))
                assert info.value.retry_after > 0
                return await slow
            finally:
                service.close()

        # The injected hang keeps the occupant's exact solve in flight so
        # the second submit deterministically finds the queue full.
        with inject_faults(hang=["occupant"], hang_seconds=0.5):
            answer = asyncio.run(scenario())
        assert answer.status == "answered"
        assert registry().counter("service.shed") == 1
        assert registry().counter("service.submitted") == 2

    def test_batch_mode_turns_shedding_into_rejected_rows(self):
        queries = [_query(label=f"q{i}", deadline=2.0) for i in range(6)]
        with QueryService(workers=2, queue_limit=2, name="t") as service:
            answers = service.run_batch(queries)
        assert len(answers) == len(queries)  # nothing lost
        shed = [a for a in answers if a.status == "rejected"]
        answered = [a for a in answers if a.status == "answered"]
        assert len(shed) == 4 and len(answered) == 2
        assert all(a.error["type"] == "ServiceOverloadError" for a in shed)
        assert registry().counter("service.shed") == 4


class TestCircuitBreaker:
    def test_open_breaker_skips_the_exact_rung(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=60.0)
        query = _query(label="blocked")
        breaker.record_failure(QueryService.region_key(query))
        with QueryService(workers=2, breaker=breaker, name="t") as service:
            (answer,) = service.run_batch([query])
        assert answer.status == "answered"
        assert answer.degraded
        exact_attempt = answer.attempts[0]
        assert exact_attempt["rung"] == "exact"
        assert exact_attempt["outcome"] == "skipped"
        assert exact_attempt["error"]["type"] == "CircuitOpenError"

    def test_open_breaker_still_replays_a_memoized_point(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=60.0)
        cache = SweepCache()
        with QueryService(
            workers=2, cache=cache, breaker=breaker, name="t"
        ) as service:
            service.run_batch([_query(label="warm")])
            breaker.record_failure(QueryService.region_key(_query()))
            (answer,) = service.run_batch([_query(label="replay")])
        assert answer.fidelity == "exact"
        assert answer.attempts[0]["replayed"] is True

    def test_breaker_is_region_scoped(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=60.0)
        breaker.record_failure(QueryService.region_key(_query(rho_s=0.9, rho_l=0.9)))
        with QueryService(workers=2, breaker=breaker, name="t") as service:
            (answer,) = service.run_batch([_query()])  # different region
        assert answer.fidelity == "exact"

    def test_region_key_buckets_loads(self):
        assert QueryService.region_key(_query(rho_s=0.51, rho_l=0.58)) == (
            QueryService.region_key(_query(rho_s=0.59, rho_l=0.50))
        )
        assert QueryService.region_key(_query(rho_s=0.61)) != (
            QueryService.region_key(_query(rho_s=0.59))
        )


class TestManifest:
    @pytest.mark.usefixtures("frozen_budget_clock")
    def test_totals_match_telemetry_counters(self, tmp_path):
        queries = [
            _query(label="ok-1"),
            _query(label="ok-2", rho_s=0.6),
            _query(label="rushed", deadline=0.04),
            _query(label="broken", case={"name": "nope"}),
        ]
        with QueryService(workers=2, queue_limit=8, name="m") as service:
            answers = service.run_batch(queries)
            path = service.write_manifest(answers, tmp_path / "SERVICE_m.json")
        manifest = json.loads(path.read_text())
        totals = manifest["totals"]
        counters = registry().snapshot()["counters"]
        assert totals["submitted"] == counters["service.submitted"] == 4
        assert totals["answered"] == counters["service.answered"]
        assert totals["rejected"] == counters["service.rejected"] == 1
        assert totals["degraded"] == counters["service.degraded"]
        assert totals["shed"] == counters.get("service.shed", 0) == 0
        assert sum(totals["by_fidelity"].values()) == totals["answered"]
        assert manifest["kind"] == "service-manifest"

    def test_closed_service_refuses_work(self):
        service = QueryService(workers=1, name="t")
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            asyncio.run(service.submit(_query()))


class TestServeCli:
    def test_serve_batch_with_check_gate(self, tmp_path, capsys):
        batch = tmp_path / "batch.json"
        batch.write_text(json.dumps({
            "queries": [
                {"rho_s": 0.5, "rho_l": 0.5, "case": {"name": "a"},
                 "threshold": 2.5, "label": "cli-a"},
                {"rho_s": 0.8, "rho_l": 0.7, "case": {"name": "b"},
                 "threshold": 5.0, "label": "cli-b"},
            ]
        }))
        from repro.__main__ import main

        code = main([
            "serve", "--batch", str(batch), "--out", str(tmp_path),
            "--name", "cli", "--workers", "2", "--check",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "cli-a" in out and "2 submitted" in out
        manifest = json.loads((tmp_path / "SERVICE_cli.json").read_text())
        assert manifest["totals"]["answered"] == 2

    def test_serve_rejects_malformed_batch_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"queries": [{"rho_s": 0.5}]}))
        from repro.__main__ import main

        assert main(["serve", "--batch", str(bad), "--out", str(tmp_path)]) == 2
        assert "rho_s and rho_l" in capsys.readouterr().err
