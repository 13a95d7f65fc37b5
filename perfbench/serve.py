"""serve-mix: an open loop of scenario queries against an in-process QueryService.

Usage (with ``src`` on ``PYTHONPATH``)::

    python perfbench/serve.py --seed N --seconds S --rate R --out result.json
        [--stats-dir DIR] [--setup-only]

Queries come, Zipf-popular and in an order the seed picks, from a pool of
(case, rho_S, rho_L) points: the exponential cases a/b/c and the same
cases with Coxian longs (C^2 = 8), at loads spanning the stability
region, including points where Dedicated is unstable and points near the
CS-CQ boundary.  Query ``i`` is
due at ``i / rate`` seconds; the generator submits it then, whatever the
state of earlier queries (an open loop), and its latency runs from that
due time to its answer.

After the loop, answers are checked outside the timed window: an exact or
cached answer must equal a direct evaluation of the same point, and every
answer must pass the ``service-answer`` contracts.  The result (setup and
finish instants, per-query latencies, fidelity counts, failures, how late
the generator ran) goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import sys
import time

#: Workload cases of the query pool: the paper's exponential cases and the
#: same cases with Coxian longs of squared coefficient of variation 8.
CASES = (
    {"name": "a"},
    {"name": "b"},
    {"name": "c"},
    {"name": "a-cox8", "mean_short": 1.0, "mean_long": 1.0, "long_scv": 8.0},
    {"name": "b-cox8", "mean_short": 1.0, "mean_long": 10.0, "long_scv": 8.0},
    {"name": "c-cox8", "mean_short": 10.0, "mean_long": 1.0, "long_scv": 8.0},
)
RHO_L = (0.2, 0.5, 0.8)
#: rho_S as a fraction of the CS-CQ boundary 2 - rho_L.  Dedicated is
#: unstable from rho_S = 1 on.  From 0.9999 on the solves turn suspect
#: and escalate precision on some cases.
BOUNDARY_FRACTIONS = (0.2, 0.45, 0.7, 0.85, 0.97, 0.9999, 1 - 1e-6)
#: Closer still, only for Coxian longs: there some exact solves fail and
#: the answer comes from a lower rung.  (With exponential longs the exact
#: solve takes seconds at this distance.)
EDGE_FRACTION = 1 - 1e-8
#: rho_L of the edge points.  The service's circuit breaker opens per
#: region of loads rounded down to tenths; these rho_L share no tenth with
#: :data:`RHO_L`, so the failing edge solves open it only for edge points.
#: (Sharing a region, an open breaker sends exponential near-boundary
#: queries to the truncated rung, whose seconds-long solves fill the
#: admission queue and make sheds, tail and peak RSS depend on the draw.)
EDGE_RHO_L = (0.1, 0.3)
ZIPF_EXPONENT = 1.1
#: Fixes which points are popular, so that seeds differ only in the draws.
POPULARITY_SEED = 2003


def _query(case: dict, rho_l: float, fraction: float) -> dict:
    mean_short = case.get("mean_short", 10.0 if case["name"] == "c" else 1.0)
    return {
        "rho_s": fraction * (2.0 - rho_l),
        "rho_l": rho_l,
        "case": case,
        "threshold": 3.0 * mean_short,
    }


def query_pool() -> "list[dict]":
    pool = [
        _query(case, rho_l, fraction)
        for case in CASES
        for rho_l in RHO_L
        for fraction in BOUNDARY_FRACTIONS
    ]
    pool += [
        _query(case, rho_l, EDGE_FRACTION)
        for case in CASES
        if "long_scv" in case
        for rho_l in EDGE_RHO_L
    ]
    random.Random(POPULARITY_SEED).shuffle(pool)
    return pool


def schedule(seed: int, count: int) -> "list[dict]":
    """``count`` Zipf-popular queries from the pool, in a seeded order.

    Each point is queried in proportion to its Zipf weight (counts rounded
    by largest remainder), so every seed offers the same work and the
    seed picks the order; draws would make each run's mix, and with it
    the latency percentiles, depend on the seed.
    """
    pool = query_pool()
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))]
    shares = [count * w / sum(weights) for w in weights]
    counts = [math.floor(share) for share in shares]
    by_remainder = sorted(range(len(pool)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    queries = [point for point, n in zip(pool, counts) for _ in range(n)]
    random.Random(seed).shuffle(queries)
    return queries


async def open_loop(service, queries, rate: float) -> dict:
    from repro.robustness import ServiceOverloadError

    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    answers: "list" = [None] * len(queries)
    latencies: "list[float]" = [0.0] * len(queries)
    late: "list[float]" = [0.0] * len(queries)

    async def one(index: int, query, due: float) -> None:
        late[index] = loop.time() - due
        try:
            answers[index] = await service.submit(query)
        except ServiceOverloadError as exc:
            answers[index] = exc
        latencies[index] = loop.time() - due

    tasks = []
    for index, query in enumerate(queries):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(index, query, due)))
    await asyncio.gather(*tasks)
    return {"answers": answers, "latencies": latencies, "late": late}


def direct_values(query) -> "dict[str, float]":
    """E[T_S] per policy straight from the analysis classes (no service)."""
    from repro.core import (
        CsCqAnalysis,
        CsCqPhAnalysis,
        CsIdAnalysis,
        CsIdPhAnalysis,
        DedicatedAnalysis,
        UnstableSystemError,
    )
    from repro.distributions import Exponential

    params = query.workload().params(float(query.rho_s), float(query.rho_l))
    exponential = isinstance(params.short_service, Exponential)
    classes = {
        "Dedicated": DedicatedAnalysis,
        "CS-ID": CsIdAnalysis if exponential else CsIdPhAnalysis,
        "CS-CQ": CsCqAnalysis if exponential else CsCqPhAnalysis,
    }
    values = {}
    for policy, cls in classes.items():
        try:
            values[policy] = float(cls(params).mean_response_time_short())
        except UnstableSystemError:
            values[policy] = math.inf
    return values


def check_answers(queries, answers) -> "tuple[list[int], list[str]]":
    """Indices of failed queries, and a description of the first few."""
    from repro.contracts import evaluate

    failed, problems, direct = [], [], {}
    for index, (query, answer) in enumerate(zip(queries, answers)):
        problem = None
        if not hasattr(answer, "answered"):
            problem = f"shed: {answer}"
        elif not answer.answered:
            problem = f"rejected: {(answer.error or {}).get('type')}"
        else:
            bad = [r.name for r in evaluate("service-answer", answer) if not r.passed]
            if bad:
                problem = f"contracts failed: {bad}"
            elif answer.fidelity in ("exact", "cached"):
                point = (json.dumps(query.case, sort_keys=True), query.rho_s, query.rho_l)
                if point not in direct:
                    direct[point] = direct_values(query)
                if answer.values != direct[point]:
                    problem = f"{answer.fidelity} answer {answer.values} != direct {direct[point]}"
        if problem is not None:
            failed.append(index)
            if len(problems) < 5:
                problems.append(f"{answer.label if hasattr(answer, 'label') else index}: {problem}")
    return failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rate", type=float, default=50.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--stats-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from repro.service import QueryService, ScenarioQuery

    service = QueryService(workers=2)
    result: dict = {"ready": time.time()}
    try:
        if args.setup_only:
            return 0
        if args.stats_dir:
            import layers

            layers.install(args.stats_dir)
        count = max(1, int(round(args.rate * args.seconds)))
        queries = [
            ScenarioQuery.from_dict({**entry, "label": f"q{index}"})
            for index, entry in enumerate(schedule(args.seed, count))
        ]
        loop_result = asyncio.run(open_loop(service, queries, args.rate))
        result["finished"] = time.time()
        if args.stats_dir:
            layers.RECORDER.enabled = False
            layers.dump()
        answers = loop_result["answers"]
        failed, problems = check_answers(queries, answers)
        fidelity: "dict[str, int]" = {}
        for answer in answers:
            if not hasattr(answer, "answered"):
                level = "shed"
            else:
                level = answer.fidelity if answer.answered else "rejected"
            fidelity[level] = fidelity.get(level, 0) + 1
        result.update(
            attempted=len(queries),
            failed=len(failed),
            problems=problems,
            fidelity=fidelity,
            latencies_s=loop_result["latencies"],
            late_s=loop_result["late"],
            late_max_s=max(loop_result["late"]),
        )
    finally:
        service.close()
        with open(args.out, "w") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
