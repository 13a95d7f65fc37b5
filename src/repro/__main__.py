"""Command-line interface: ``python -m repro <command>``.

Commands
--------
analyze    Mean response times of all policies at one load point.
simulate   Run one discrete-event simulation.
figure     Regenerate a paper figure (3, 4, 5 or 6) as text tables.
stability  Print the Theorem 1 stability boundaries.
validate   Run the Section 4 limiting-case validation.
bench      Time the hot-path benchmarks; record/compare BENCH_<name>.json.
check      Cross-method consistency oracle; write results/CHECK_<name>.json.
trust      Summarize numerical-trust verdicts recorded in a results dir.
trace      Render/inspect/diff a TRACE_<name>.jsonl produced with --trace.
serve      Answer a scenario-query batch with graceful degradation.
store      Administer the persistent result store (stats / fsck / gc).

Tracing: pass ``--trace`` to ``figure`` or ``check`` (or set
``REPRO_TRACE=1`` for any command) to record a span trace of the run;
it is exported as ``TRACE_<name>.jsonl`` next to the checkpoint journal
(see docs/observability.md).

Persistent store: pass ``--store`` to ``figure``, ``bench``, ``check``
or ``serve`` (or set ``REPRO_STORE=1`` / ``REPRO_STORE=<dir>`` for any
command) to persist cached solver results across runs under
``results/store/``; see docs/performance.md and docs/robustness.md §9.
"""

from __future__ import annotations

import argparse
import sys


def _add_load_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho-s", type=float, required=True, help="short-job load")
    parser.add_argument("--rho-l", type=float, required=True, help="long-job load")
    parser.add_argument("--mean-short", type=float, default=1.0)
    parser.add_argument("--mean-long", type=float, default=1.0)
    parser.add_argument("--short-scv", type=float, default=1.0)
    parser.add_argument("--long-scv", type=float, default=1.0)


def _params(args):
    from .core import SystemParameters

    return SystemParameters.from_loads(
        rho_s=args.rho_s,
        rho_l=args.rho_l,
        mean_short=args.mean_short,
        mean_long=args.mean_long,
        short_scv=args.short_scv,
        long_scv=args.long_scv,
    )


def cmd_analyze(args) -> int:
    from .core import (
        CsCqAnalysis,
        CsIdAnalysis,
        DedicatedAnalysis,
        UnstableSystemError,
    )

    params = _params(args)
    print(params.describe())
    print(f"\n{'policy':12s} {'E[T_short]':>12s} {'E[T_long]':>12s}")
    rows = [("Dedicated", DedicatedAnalysis), ("CS-ID", CsIdAnalysis), ("CS-CQ", CsCqAnalysis)]
    diagnostics_blocks = []
    for name, cls in rows:
        try:
            analysis = cls(params)
            print(
                f"{name:12s} {analysis.mean_response_time_short():12.4f} "
                f"{analysis.mean_response_time_long():12.4f}"
            )
            if args.diagnostics:
                solver = getattr(analysis, "solver_diagnostics", None)
                if solver is not None:
                    diagnostics_blocks.append((name, solver))
        except UnstableSystemError as exc:
            print(f"{name:12s} {'unstable':>12s}  ({exc})")
    for name, solver in diagnostics_blocks:
        print(f"\n{name} solver diagnostics:")
        print(solver.summary(indent="  "))
    if params.short_service.scv != 1.0:
        print(
            "\n(non-exponential shorts: using the phase-type generalizations "
            "of the CS-ID and CS-CQ chains)"
        )
    return 0


def cmd_simulate(args) -> int:
    from .simulation import simulate

    params = _params(args)
    result = simulate(
        args.policy,
        params,
        seed=args.seed,
        warmup_jobs=args.warmup,
        measured_jobs=args.jobs,
    )
    print(params.describe())
    print(f"policy: {args.policy}, measured jobs: {args.jobs}, seed: {args.seed}")
    print(f"E[T_short] = {result.mean_response_short:.4f} "
          f"({result.n_measured_short} jobs)")
    print(f"E[T_long]  = {result.mean_response_long:.4f} "
          f"({result.n_measured_long} jobs)")
    print(f"long-host idle fraction = {result.frac_long_host_idle:.4f}")
    return 0


def cmd_figure(args) -> int:
    import os

    if args.no_contracts:
        # Env var rather than plumbing a flag: it crosses the worker
        # process boundary and leaves sweep-point content hashes stable.
        os.environ["REPRO_NO_CONTRACTS"] = "1"

    from .experiments import (
        figure3_panel,
        figure4_panels,
        figure5_panels,
        figure6_panels,
        format_panel,
    )

    grid = None
    if args.grid:
        grid = [float(token) for token in args.grid.split(",") if token.strip()]

    # Figures 4-6 sweep real solver work, so they run through the
    # orchestration layer: a checkpoint journal + manifest under
    # --checkpoint-dir, points in this process by default, and worker
    # subprocesses for isolation and per-point timeouts.  Figure 3 is
    # closed-form stability algebra and stays in-process.
    runner = None
    if args.number in (4, 5, 6):
        from pathlib import Path

        from .orchestration import SweepRunner, faults

        workers = args.workers
        if workers is None:
            # Only a worker can be killed on a timeout or crash on demand.
            isolate = args.timeout is not None or os.environ.get(faults.ENV_POINTS)
            workers = 1 if isolate else 0
        elif workers == 0 and args.timeout is not None:
            print(
                "figure: --timeout needs a worker subprocess; "
                "drop --workers 0 or pass --workers 1 or more",
                file=sys.stderr,
            )
            return 2
        checkpoint_dir = Path(args.checkpoint_dir)
        run_name = args.name or f"figure{args.number}"
        runner = SweepRunner(
            workers=workers,
            timeout=args.timeout,
            journal_path=checkpoint_dir / f"{run_name}.journal.jsonl",
            manifest_path=checkpoint_dir / f"{run_name}.manifest.json",
            resume=args.resume,
            run_name=run_name,
        )

    if args.number == 3:
        panels = [figure3_panel(grid)]
    elif args.number == 4:
        panels = figure4_panels(rho_s_values=grid, runner=runner)
    elif args.number == 5:
        panels = figure5_panels(rho_s_values=grid, runner=runner)
    else:
        panels = figure6_panels(
            rho_l_values_short=grid, rho_l_values_long=grid, runner=runner
        )
    print("\n\n".join(format_panel(panel) for panel in panels))
    if runner is not None:
        # stderr, so resumed and fresh runs produce byte-identical stdout.
        print(runner.summary(), file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    """Cross-method consistency oracle over a load grid (see docs/robustness.md)."""
    from dataclasses import asdict
    from pathlib import Path

    from .contracts import OracleConfig, summarize_verdicts, write_check_report
    from .core import cs_cq_max_rho_s
    from .orchestration import SweepRunner
    from .orchestration.spec import SweepPoint
    from .workloads import case_by_name

    case = case_by_name(args.case)
    rho_l = args.rho_l
    if args.grid:
        pairs = [
            (float(token), rho_l)
            for token in args.grid.split(",")
            if token.strip()
        ]
    elif args.quick:
        # Three figure-4 loads — light, moderate, and near-boundary (90%
        # of the CS-CQ stability limit 2 - rho_l) — plus one heavy-long
        # row at rho_l = 0.98 where the trust layer widens the agreement
        # tolerance by the solve's own error bound (docs/robustness.md
        # §10); CI exercises the trust-scaled oracle through it.
        pairs = [
            (0.3, rho_l),
            (0.9, rho_l),
            (round(0.9 * cs_cq_max_rho_s(rho_l), 10), rho_l),
            (round(0.9 * cs_cq_max_rho_s(0.98), 10), 0.98),
        ]
    else:
        top = cs_cq_max_rho_s(rho_l)
        pairs = [
            (round(fraction * top, 10), rho_l)
            for fraction in (0.2, 0.4, 0.6, 0.8, 0.9)
        ]

    config = OracleConfig(
        rel_tolerance=args.rel_tolerance,
        n_replications=args.replications,
        measured_jobs=args.jobs,
        max_escalations=args.max_escalations,
        seed=args.seed,
    )
    run_name = args.name or ("check-quick" if args.quick else "check")
    checkpoint_dir = Path(args.checkpoint_dir)
    runner = SweepRunner(
        workers=args.workers,
        timeout=args.timeout,
        journal_path=checkpoint_dir / f"{run_name}.journal.jsonl",
        manifest_path=checkpoint_dir / f"{run_name}.manifest.json",
        resume=args.resume,
        run_name=run_name,
    )
    points = [
        SweepPoint(
            task="oracle-point",
            kwargs={
                "case": asdict(case),
                "rho_s": float(rho_s),
                "rho_l": float(rho_l_point),
                "config": config.as_dict(),
            },
            # Must match the label oracle_point recomputes, so perturbation
            # fault entries target the same point in driver and worker.
            label=f"oracle {case.name} rho_s={rho_s:g} rho_l={rho_l_point:g}",
        )
        for rho_s, rho_l_point in pairs
    ]

    verdicts = []
    for point, outcome in zip(points, runner.run(points)):
        if outcome is not None and outcome.ok and isinstance(outcome.value, dict):
            verdict = dict(outcome.value)
        else:
            verdict = {
                "label": point.label,
                "rho_s": point.kwargs["rho_s"],
                "rho_l": point.kwargs["rho_l"],
                "classification": "error",
                "error": outcome.error if outcome is not None else None,
            }
        verdict["status"] = outcome.status if outcome is not None else "skipped"
        # The runner's measurement covers the point's whole escalation
        # ladder; the report ranks suspects by it (suspects_by_cost).
        if outcome is not None:
            verdict["wall_time_s"] = float(outcome.wall_time)
        verdicts.append(verdict)
        comparisons = verdict.get("comparisons") or []
        detail = ", ".join(
            f"{c['job_class']}: qbd={c['analytic']:.4g} sim={c['sim_mean']:.4g} "
            f"(+/-{c['sim_half_width']:.2g})"
            for c in comparisons
        )
        escalated = verdict.get("escalations", 0)
        trust = verdict.get("trust") or {}
        trust_note = ""
        if trust.get("trust"):
            bound = trust.get("error_bound")
            trust_note = f" [trust: {trust['trust']}" + (
                f", bound {bound:.3g}]" if isinstance(bound, float) else "]"
            )
        print(
            f"[{verdict['classification']:>12s}] {verdict['label']}"
            + (f" — {detail}" if detail else "")
            + (f" [escalated x{escalated}]" if escalated else "")
            + trust_note
        )

    report_path = write_check_report(
        args.out,
        run_name,
        verdicts,
        config=config.as_dict(),
        extra={
            "case": asdict(case),
            "grid": [[float(s), float(l)] for s, l in pairs],
        },
    )
    counts = summarize_verdicts(verdicts)
    print(runner.summary(), file=sys.stderr)
    print(
        f"[check {run_name}] {counts['total']} points: "
        f"{counts.get('agree', 0)} agree, {counts.get('suspect', 0)} suspect, "
        f"{counts.get('inconclusive', 0)} inconclusive"
        + (f", {counts['error']} error" if counts.get("error") else "")
        + f"; {counts['escalations']} escalations -> {report_path}"
    )
    bad = counts.get("suspect", 0) + counts.get("error", 0)
    return 1 if bad else 0


def _scan_trust_records(root) -> "list[dict]":
    """Collect every trust verdict a results directory carries.

    Three producers annotate results with trust records: run manifests
    (``<name>.manifest.json`` — per-point, per-policy ladder rows),
    oracle reports (``CHECK_<name>.json`` — per-verdict records), and
    store entry headers (``store/`` — audited by ``store fsck --trust``
    rather than here).
    """
    import json

    records: "list[dict]" = []
    for path in sorted(root.glob("*.manifest.json")):
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        for point in document.get("points") or []:
            for policy, row in (point.get("ladder") or {}).items():
                if not isinstance(row, dict) or row.get("trust") is None:
                    continue
                records.append(
                    {
                        "source": path.name,
                        "label": f"{point.get('label', '?')}/{policy}",
                        "trust": row["trust"],
                        "error_bound": row.get("error_bound"),
                    }
                )
    for path in sorted(root.glob("CHECK_*.json")):
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        for point in document.get("points") or []:
            trust = point.get("trust")
            if not isinstance(trust, dict) or not trust.get("trust"):
                continue
            records.append(
                {
                    "source": path.name,
                    "label": point.get("label", "?"),
                    "trust": trust["trust"],
                    "error_bound": trust.get("error_bound"),
                    "escalated": bool(trust.get("escalated", False)),
                }
            )
    return records


def cmd_trust(args) -> int:
    """Summarize numerical-trust verdicts across a results directory."""
    import json
    import math
    from pathlib import Path

    from .robustness import TRUST_LEVELS

    root = Path(args.dir)
    records = _scan_trust_records(root)
    counts = {level: 0 for level in TRUST_LEVELS}
    worst_bound = 0.0
    for record in records:
        counts[record["trust"]] = counts.get(record["trust"], 0) + 1
        bound = record.get("error_bound")
        if isinstance(bound, (int, float)) and math.isfinite(bound):
            worst_bound = max(worst_bound, float(bound))
    report = {
        "root": str(root),
        "records": len(records),
        "counts": counts,
        "worst_finite_bound": worst_bound if records else None,
        "flagged": [r for r in records if r["trust"] != "trusted"],
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"[trust {root}] {len(records)} verdicts: "
            + ", ".join(f"{counts[level]} {level}" for level in TRUST_LEVELS)
            + (
                f"; worst finite bound {worst_bound:.3g}"
                if records
                else ""
            )
        )
        for record in report["flagged"]:
            bound = record.get("error_bound")
            print(
                f"  {record['trust'].upper():>9s} {record['label']} "
                f"({record['source']}): bound "
                + (
                    f"{bound:.3g}"
                    if isinstance(bound, (int, float))
                    else str(bound)
                )
            )
    if args.fail_on is not None:
        bad = counts.get("untrusted", 0)
        if args.fail_on == "suspect":
            bad += counts.get("suspect", 0)
        if bad:
            return 1
    return 0


def cmd_trace(args) -> int:
    """Render, integrity-check, or diff span traces (docs/observability.md)."""
    from .telemetry import check_trace, diff_traces, load_trace, render_trace

    _, records = load_trace(args.trace_file)
    if args.diff:
        _, other = load_trace(args.diff)
        print(diff_traces(records, other))
        return 0
    print(render_trace(records, top=args.top, max_depth=args.depth))
    if args.check:
        problems = check_trace(records)
        if problems:
            print()
            for problem in problems:
                print(f"[trace-check] {problem}")
            return 1
        print("\n[trace-check] ok: no integrity problems")
    return 0


def cmd_store(args) -> int:
    """Administer the persistent result store (docs/robustness.md §9)."""
    import json

    from .perf.store import DEFAULT_STORE_ROOT, ResultStore, store_from_env

    if args.dir:
        store = ResultStore(args.dir)
    else:
        store = store_from_env() or ResultStore(DEFAULT_STORE_ROOT)

    if args.store_command == "stats":
        report = store.disk_stats()
        if args.json:
            print(json.dumps(report, indent=2))
            return 0
        print(f"store: {report['root']}")
        print(
            f"  {report['entries']} entries, {report['bytes']} bytes, "
            f"{report['quarantined']} quarantined, "
            f"{report['tmp_files']} stale tmp files"
        )
        for ns, row in sorted(report["by_namespace"].items()):
            print(f"  {ns:18s} {row['entries']:6d} entries {row['bytes']:10d} bytes")
        return 0

    if args.store_command == "fsck":
        report = store.fsck(trust_budget=args.trust)
        flagged = report.get("trust_flagged", [])
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(
                f"[fsck {report['root']}] {report['checked']} entries checked, "
                f"{report['ok']} ok, {len(report['corrupt'])} corrupt"
                + (
                    f", {len(report['tmp_files'])} stale tmp files"
                    if report["tmp_files"]
                    else ""
                )
                + (
                    f", {len(flagged)} over trust budget {args.trust:g}"
                    if args.trust is not None
                    else ""
                )
            )
            for entry in report["corrupt"]:
                print(
                    f"  CORRUPT {entry['path']}: {entry['reason']}"
                    + (
                        f" -> quarantined to {entry['quarantined_to']}"
                        if entry["quarantined_to"]
                        else ""
                    )
                )
            for entry in flagged:
                bound = entry["error_bound"]
                print(
                    f"  TRUST {entry['path']}: {entry['trust']}, error bound "
                    + (f"{bound:.3g}" if isinstance(bound, float) else str(bound))
                    + (" (escalated)" if entry["escalated"] else "")
                )
        return 1 if report["corrupt"] or flagged else 0

    # gc
    max_age = args.max_age_days * 86400.0 if args.max_age_days is not None else None
    report = store.gc(max_bytes=args.max_bytes, max_age=max_age)
    if args.json:
        print(json.dumps(report, indent=2))
    elif report.get("locked"):
        print(f"[gc {report['root']}] another collector holds the lock; nothing done")
    else:
        print(
            f"[gc {report['root']}] evicted {report['evicted']} entries "
            f"({report['freed_bytes']} bytes), removed "
            f"{report['stale_tmp_removed']} stale tmp files"
        )
    return 0


def cmd_stability(args) -> int:
    from .core import cs_cq_max_rho_s, cs_id_max_rho_s, dedicated_max_rho_s

    print(f"{'rho_l':>6s} {'Dedicated':>10s} {'CS-ID':>10s} {'CS-CQ':>10s}")
    steps = max(args.steps, 2)
    for i in range(steps):
        rho_l = i / steps
        print(
            f"{rho_l:6.3f} {dedicated_max_rho_s(rho_l):10.4f} "
            f"{cs_id_max_rho_s(rho_l):10.4f} {cs_cq_max_rho_s(rho_l):10.4f}"
        )
    return 0


def cmd_validate(_args) -> int:
    from .experiments import limiting_cases

    failures = 0
    for result in limiting_cases():
        status = "ok" if result.rel_error < 1e-3 else "FAIL"
        failures += status == "FAIL"
        print(
            f"[{status:4s}] {result.name}: ours={result.ours:.6g} "
            f"exact={result.exact:.6g} (rel err {result.rel_error:.2e})"
        )
    return 1 if failures else 0


def cmd_bench(args) -> int:
    from .perf import bench as perf_bench

    names = args.names or sorted(perf_bench.BENCHMARKS)
    unknown = [n for n in names if n not in perf_bench.BENCHMARKS]
    if unknown:
        print(
            f"unknown benchmark(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(perf_bench.BENCHMARKS))}",
            file=sys.stderr,
        )
        return 2
    failures = 0
    if args.compare is not None:
        # Unparseable baseline files are unpairable by construction; fail
        # before timing anything rather than silently gating against a
        # subset of the committed records.
        _, unparseable = perf_bench.discover_records(args.compare)
        for path in unparseable:
            print(
                f"unpairable baseline record {path} (expected "
                "BENCH_<name>[.quick].json)",
                file=sys.stderr,
            )
            failures += 1
    for name in names:
        record = perf_bench.run_benchmark(name, quick=args.quick, repeat=args.repeat)
        payload = record.as_dict()
        baseline = None
        if args.compare is not None:
            baseline = perf_bench.load_baseline(name, args.quick, args.compare)
            if baseline is not None:
                # Fold the trajectory into the record itself, so the JSON
                # is self-contained: what was measured, against what, and
                # the resulting speedup.
                payload["baseline"] = {
                    "wall_time": baseline["wall_time"],
                    "calibration": baseline.get("calibration"),
                    "recorded": baseline.get("recorded"),
                    "source": str(args.compare),
                }
                payload["speedup_vs_baseline"] = (
                    baseline["wall_time"] / record.wall_time
                )
                if record.calibration and baseline.get("calibration"):
                    # Machine-speed-corrected speedup, same normalization
                    # as the regression gate (see compare_records).
                    payload["speedup_vs_baseline_normalized"] = (
                        baseline["wall_time"] / baseline["calibration"]
                    ) / (record.wall_time / record.calibration)
        path = perf_bench.write_bench_json(payload, args.out)
        cache = payload["cache"] or {}
        print(
            f"[bench {name}{' --quick' if args.quick else ''}] "
            f"wall {record.wall_time:.4g}s (best of {args.repeat}), "
            f"cache hit rate {cache.get('hit_rate', 0.0):.0%} "
            f"({cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses)"
            f" -> {path}"
        )
        if args.compare is not None:
            if baseline is None:
                # A missing baseline is a gate failure, not a skip: a
                # renamed or never-committed anchor would otherwise turn
                # the regression gate off silently.
                print(
                    f"  UNPAIRED: no baseline for {name} in {args.compare} "
                    f"(expected {perf_bench.record_filename(name, args.quick)}"
                    "); commit the new record as its baseline, or pass "
                    "--allow-missing-baseline to bootstrap"
                )
                failures += not args.allow_missing_baseline
                continue
            ok, message = perf_bench.compare_records(
                payload, baseline, tolerance=args.tolerance
            )
            print(f"  {'ok' if ok else 'REGRESSION'}: {message}")
            failures += not ok
    return 1 if failures else 0


def cmd_serve(args) -> int:
    import json
    from pathlib import Path

    from .service import QueryService, ScenarioQuery

    raw = json.loads(Path(args.batch).read_text())
    if isinstance(raw, dict):
        raw = raw.get("queries", raw.get("batch"))
    if not isinstance(raw, list):
        print(
            f"{args.batch}: expected a JSON list of queries "
            "(or an object with a 'queries' list)",
            file=sys.stderr,
        )
        return 2
    try:
        queries = [ScenarioQuery.from_dict(entry) for entry in raw]
    except (TypeError, ValueError) as exc:
        print(f"{args.batch}: {exc}", file=sys.stderr)
        return 2

    with QueryService(
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_deadline=args.default_deadline,
        name=args.name,
    ) as service:
        answers = service.run_batch(queries)
        manifest = service.build_manifest(answers)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"SERVICE_{args.name}.json"
        from .robustness import atomic_write_json

        atomic_write_json(path, manifest)

    for answer in answers:
        if answer.answered:
            verdict = answer.verdict or {}
            meets = ",".join(verdict.get("meets", [])) or "-"
            print(
                f"[{answer.fidelity:>9s}] {answer.label}: "
                f"meets={meets} ({answer.elapsed:.3f}s"
                f"{f', {answer.retries} retries' if answer.retries else ''})"
            )
        else:
            err = (answer.error or {}).get("type", "rejected")
            print(f"[ rejected] {answer.label}: {err}")
    totals = manifest["totals"]
    print(
        f"{totals['submitted']} submitted: {totals['answered']} answered "
        f"({totals['degraded']} degraded), {totals['shed']} shed, "
        f"{totals['rejected']} rejected, {totals['retried']} retries, "
        f"{totals['tripped']} breaker trips -> {path}"
    )
    if args.check:
        problems = _check_service_run(queries, answers, manifest)
        for problem in problems:
            print(f"[FAIL] {problem}", file=sys.stderr)
        if problems:
            return 1
        print("[ok] no lost queries; fidelity tags and counters consistent")
    return 0


def _check_service_run(queries, answers, manifest) -> "list[str]":
    """The ``--check`` gate: survival + honesty assertions for CI smoke."""
    from .contracts import evaluate

    problems = []
    if len(answers) != len(queries):
        problems.append(
            f"lost queries: {len(queries)} submitted, {len(answers)} accounted for"
        )
    for answer in answers:
        for result in evaluate("service-answer", answer):
            if not result.passed:
                problems.append(f"{answer.label}: contract {result.name}: {result.detail}")
    totals = manifest["totals"]
    telemetry = manifest["telemetry"]
    for short, counter in (
        ("submitted", "service.submitted"),
        ("answered", "service.answered"),
        ("shed", "service.shed"),
        ("rejected", "service.rejected"),
        ("degraded", "service.degraded"),
        ("retried", "service.retried"),
    ):
        if totals[short] != telemetry.get(counter, 0):
            problems.append(
                f"manifest totals[{short}]={totals[short]} disagrees with "
                f"telemetry {counter}={telemetry.get(counter, 0)}"
            )
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Cycle stealing under central queue (ICDCS 2003) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analytic response times at one point")
    _add_load_args(p_analyze)
    p_analyze.add_argument(
        "--diagnostics",
        action="store_true",
        help="print per-policy solver diagnostics (method, fallback rungs, "
        "residuals, sp(R), cond(I-R), wall time)",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="simulate one policy at one point")
    _add_load_args(p_sim)
    p_sim.add_argument(
        "--policy",
        default="cs-cq",
        choices=[
            "dedicated", "cs-id", "cs-cq", "mgk", "mg2-sjf",
            "round-robin", "shortest-queue", "tags",
        ],
    )
    p_sim.add_argument("--jobs", type=int, default=200_000)
    p_sim.add_argument("--warmup", type=int, default=20_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int, choices=(3, 4, 5, 6))
    p_fig.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker subprocesses for the sweep, for isolation and timeouts "
        "(default 0 = in-process, where each row's QBDs are first solved in "
        "stacked LAPACK calls; the tables are the same either way).  "
        "--timeout or REPRO_FAULT_POINTS without --workers implies 1",
    )
    p_fig.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point timeout in seconds; a hung point is killed and "
        "plotted as NaN while the sweep continues (needs a worker: implies "
        "--workers 1, and --workers 0 with it is an error)",
    )
    p_fig.add_argument(
        "--resume",
        action="store_true",
        help="skip points already recorded in the checkpoint journal "
        "(failed/timed-out points are retried)",
    )
    p_fig.add_argument(
        "--checkpoint-dir",
        default="results",
        help="directory for the checkpoint journal and run manifest",
    )
    p_fig.add_argument(
        "--name",
        default=None,
        help="run name for <name>.journal.jsonl / <name>.manifest.json "
        "(default: figure<N>)",
    )
    p_fig.add_argument(
        "--grid",
        default=None,
        help="comma-separated sweep grid override (rho_s values for figures "
        "4/5, rho_l values for figures 3/6); handy for smoke tests",
    )
    p_fig.add_argument(
        "--no-contracts",
        action="store_true",
        help="skip in-sweep invariant-contract evaluation (sets "
        "REPRO_NO_CONTRACTS for this run, including worker subprocesses)",
    )
    p_fig.add_argument(
        "--trace",
        action="store_true",
        help="record a span trace of the run (sets REPRO_TRACE for this run, "
        "including worker subprocesses) and export it as TRACE_<name>.jsonl "
        "under --checkpoint-dir",
    )
    _add_store_flag(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_check = sub.add_parser(
        "check",
        help="cross-method consistency oracle (QBD vs truncated chain vs "
        "simulation); write results/CHECK_<name>.json, exit 1 on suspects",
    )
    p_check.add_argument("--rho-l", type=float, default=0.5, help="long-job load")
    p_check.add_argument(
        "--case",
        default="a",
        help="workload case name (a/b/c, exponential sizes; default a)",
    )
    p_check.add_argument(
        "--grid",
        default=None,
        help="comma-separated rho_s values (default: fractions of the "
        "stability limit; see --quick)",
    )
    p_check.add_argument(
        "--quick",
        action="store_true",
        help="3-point smoke grid: rho_s = 0.3, 0.9 and 90%% of the CS-CQ "
        "stability limit (the CI oracle-smoke variant)",
    )
    p_check.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker subprocesses (0 = in-process, no isolation)",
    )
    p_check.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-point timeout in seconds (a point's whole escalation "
        "ladder runs under it)",
    )
    p_check.add_argument("--resume", action="store_true")
    p_check.add_argument("--checkpoint-dir", default="results")
    p_check.add_argument(
        "--name",
        default=None,
        help="run name for the journal/manifest/report "
        "(default: check, or check-quick with --quick)",
    )
    p_check.add_argument(
        "--out", default="results", help="directory for CHECK_<name>.json"
    )
    p_check.add_argument(
        "--rel-tolerance",
        type=float,
        default=0.05,
        help="relative tolerance for method agreement (default 0.05, the "
        "QBD's busy-period matching error budget)",
    )
    p_check.add_argument(
        "--jobs",
        type=int,
        default=20_000,
        help="measured jobs per replication before escalation (default 20000)",
    )
    p_check.add_argument(
        "--replications", type=int, default=5, help="simulation replications"
    )
    p_check.add_argument(
        "--max-escalations",
        type=int,
        default=4,
        help="job-doubling rounds allowed before a wide CI is declared "
        "inconclusive (default 4)",
    )
    p_check.add_argument("--seed", type=int, default=20030703)
    p_check.add_argument(
        "--trace",
        action="store_true",
        help="record a span trace of the run and export it as "
        "TRACE_<name>.jsonl under --checkpoint-dir",
    )
    _add_store_flag(p_check)
    p_check.set_defaults(func=cmd_check)

    p_trust = sub.add_parser(
        "trust",
        help="summarize numerical-trust verdicts recorded in a results "
        "directory (run manifests and CHECK_<name>.json reports); "
        "--fail-on gates CI on suspect/untrusted points",
    )
    p_trust.add_argument(
        "--dir",
        default="results",
        help="results directory to scan (default: results)",
    )
    p_trust.add_argument(
        "--fail-on",
        choices=("suspect", "untrusted"),
        default=None,
        help="exit 1 when any verdict is at or below this level",
    )
    p_trust.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p_trust.set_defaults(func=cmd_trust)

    p_trace = sub.add_parser(
        "trace",
        help="render a TRACE_<name>.jsonl as a span tree; --check for "
        "integrity problems, --diff to compare two traces",
    )
    p_trace.add_argument("trace_file", help="path to a TRACE_*.jsonl file")
    p_trace.add_argument(
        "--top", type=int, default=5, help="slowest-span entries to list (default 5)"
    )
    p_trace.add_argument(
        "--depth", type=int, default=None, help="maximum tree depth to render"
    )
    p_trace.add_argument(
        "--diff",
        default=None,
        metavar="OTHER",
        help="second trace: print a per-span-name self-time diff "
        "(this file -> OTHER) instead of the tree",
    )
    p_trace.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any span has negative self-time, a negative "
        "duration, a missing parent, or was never closed",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_stab = sub.add_parser("stability", help="Theorem 1 boundaries")
    p_stab.add_argument("--steps", type=int, default=20)
    p_stab.set_defaults(func=cmd_stability)

    p_val = sub.add_parser("validate", help="limiting-case validation")
    p_val.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser(
        "bench", help="time the hot paths; write results/BENCH_<name>.json"
    )
    p_bench.add_argument(
        "names",
        nargs="*",
        help="benchmarks to run (default: all; see docs/performance.md)",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="reduced grids/job counts (the CI smoke variant; separate "
        "BENCH_<name>.quick.json records)",
    )
    p_bench.add_argument(
        "--repeat", type=int, default=3, help="timing repeats; best is recorded"
    )
    p_bench.add_argument(
        "--out", default="results", help="directory for BENCH_<name>.json output"
    )
    p_bench.add_argument(
        "--compare",
        default=None,
        metavar="DIR",
        help="baseline directory (e.g. benchmarks/baselines); exit 1 on a "
        "regression beyond --tolerance",
    )
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="relative regression tolerance for --compare (default 0.30)",
    )
    p_bench.add_argument(
        "--allow-missing-baseline",
        action="store_true",
        help="with --compare, treat a missing baseline record as a note "
        "instead of a gate failure (for bootstrapping new benchmarks)",
    )
    _add_store_flag(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="answer a batch of scenario queries with deadline budgets and "
        "graceful fidelity degradation; write results/SERVICE_<name>.json",
    )
    p_serve.add_argument(
        "--batch",
        required=True,
        metavar="FILE",
        help="JSON file: a list of query objects (rho_s, rho_l, case, "
        "threshold, deadline, label), or {'queries': [...]}",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4, help="solver threads (default 4)"
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="admission limit; queries beyond it are shed (default 16)",
    )
    p_serve.add_argument(
        "--default-deadline",
        type=float,
        default=5.0,
        help="budget in seconds for queries without their own (default 5)",
    )
    p_serve.add_argument(
        "--out", default="results", help="directory for SERVICE_<name>.json"
    )
    p_serve.add_argument("--name", default="service", help="manifest name")
    p_serve.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every query is answered-or-rejected, fidelity "
        "tags pass the service-answer contracts, and manifest totals match "
        "the telemetry counters (the CI smoke gate)",
    )
    _add_store_flag(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_store = sub.add_parser(
        "store",
        help="administer the persistent result store "
        "(results/store/ or REPRO_STORE/--dir)",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_store_stats = store_sub.add_parser(
        "stats", help="entry/byte counts per namespace, quarantine count"
    )
    p_store_fsck = store_sub.add_parser(
        "fsck",
        help="verify every entry (checksums, schema, contracts); "
        "quarantine failures; exit 1 if any entry was corrupt",
    )
    p_store_fsck.add_argument(
        "--trust",
        type=float,
        default=None,
        metavar="BUDGET",
        help="additionally flag intact entries whose recorded numerical "
        "error bound exceeds BUDGET (or carries no finite bound); flagged "
        "entries also fail the exit code",
    )
    p_store_gc = store_sub.add_parser(
        "gc",
        help="evict entries by size/age bound (LRU by last-access time "
        "recorded in each entry header) and sweep stale tmp files",
    )
    p_store_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="evict least-recently-used entries until the store fits",
    )
    p_store_gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="evict entries not accessed within this many days",
    )
    for p in (p_store_stats, p_store_fsck, p_store_gc):
        p.add_argument(
            "--dir",
            default=None,
            help="store root (default: REPRO_STORE if set to a path, "
            "else results/store)",
        )
        p.add_argument(
            "--json", action="store_true", help="machine-readable report"
        )
    p_store.set_defaults(func=cmd_store)

    args = parser.parse_args(argv)
    return _dispatch(args)


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        action="store_true",
        help="persist cached solver results across runs (sets REPRO_STORE "
        "for this run, including worker subprocesses; store root is "
        "results/store, or set REPRO_STORE=<dir> instead)",
    )


def _trace_run_name(args) -> str:
    """Run name for the TRACE_<name>.jsonl export (mirrors each command's
    journal/manifest naming so the trace lands next to them)."""
    name = getattr(args, "name", None)
    if name:
        return name
    if args.command == "figure":
        return f"figure{args.number}"
    if args.command == "check":
        return "check-quick" if getattr(args, "quick", False) else "check"
    return args.command


def _dispatch(args) -> int:
    """Run the selected command, under a root ``cli.<command>`` span when
    tracing is requested (``--trace``) or pre-enabled (``REPRO_TRACE=1``)."""
    import os

    from .perf.store import STORE_ENV_VAR, store_from_env

    store_overridden = False
    prior_store_env = os.environ.get(STORE_ENV_VAR)
    if getattr(args, "store", False) and store_from_env() is None:
        # Env var rather than plumbing a flag: it crosses the worker
        # process boundary (fork and spawn) like REPRO_NO_CONTRACTS, so
        # orchestration workers join the same store.  An *enabling*
        # REPRO_STORE (possibly a path override) wins over the flag; a
        # disabled/empty one is overridden — the user asked for --store.
        os.environ[STORE_ENV_VAR] = "1"
        store_overridden = True
    try:
        return _dispatch_traced(args)
    finally:
        # A --store run must not leak its env into later in-process
        # main() calls (tests, notebooks).
        if store_overridden:
            if prior_store_env is None:
                os.environ.pop(STORE_ENV_VAR, None)
            else:
                os.environ[STORE_ENV_VAR] = prior_store_env


def _dispatch_traced(args) -> int:
    import os

    from .telemetry import TRACE_ENV_VAR, tracing_enabled

    env_was_set = TRACE_ENV_VAR in os.environ
    if getattr(args, "trace", False):
        # Env var rather than plumbing a flag: it crosses the worker
        # process boundary (fork and spawn) like REPRO_NO_CONTRACTS.
        os.environ[TRACE_ENV_VAR] = "1"
    if args.command == "trace" or not (
        getattr(args, "trace", False) or tracing_enabled()
    ):
        return args.func(args)

    from pathlib import Path

    from .telemetry import disable_tracing, enable_tracing, span

    run_name = _trace_run_name(args)
    out_dir = Path(
        getattr(args, "checkpoint_dir", None) or getattr(args, "out", None) or "results"
    )
    collector = enable_tracing(run_name)
    try:
        with span(f"cli.{args.command}", run=run_name):
            code = args.func(args)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = collector.export(out_dir / f"TRACE_{run_name}.jsonl")
            # stderr, so traced and untraced runs produce identical stdout.
            print(f"[trace] wrote {path}", file=sys.stderr)
        except OSError as exc:
            print(f"[trace] export failed: {exc}", file=sys.stderr)
    finally:
        # A --trace run must not leak tracing into later in-process main()
        # calls (tests, notebooks): drop the env var and the enabled flag
        # again unless the caller had REPRO_TRACE set before we started.
        if getattr(args, "trace", False) and not env_was_set:
            os.environ.pop(TRACE_ENV_VAR, None)
            disable_tracing()
    return code


if __name__ == "__main__":
    sys.exit(main())
