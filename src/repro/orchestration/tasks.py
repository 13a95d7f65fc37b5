"""Built-in sweep tasks: the worker-side halves of the experiment stack.

Every task is a plain top-level function taking JSON-serializable keyword
arguments and returning JSON-serializable data — the contract that lets a
point be shipped to a worker subprocess, content-hashed into the
checkpoint journal, and resumed byte-identically later.  The experiment
entry points (``repro.experiments.figures``, ``repro.experiments
.validation``, ``repro.simulation.runner``) build the matching
:class:`~repro.orchestration.spec.SweepPoint` objects.

Tasks may return a ``"diagnostics"`` key (per-policy
:meth:`~repro.robustness.SolverDiagnostics.as_dict` payloads) and a
``"degraded"`` flag; the worker shim lifts both into the point outcome.
"""

from __future__ import annotations

import base64
import pickle
import time

from .spec import register_task

__all__ = [
    "demo_point",
    "oracle_point",
    "replication_point",
    "response_point",
    "validation_point",
]


@register_task("demo-point")
def demo_point(x: float, sleep: float = 0.0) -> dict:
    """Trivial task (y = x^2) used by tests, docs and smoke runs."""
    if sleep:
        time.sleep(sleep)
    return {"values": {"y": float(x) * float(x)}}


@register_task("response-point")
def response_point(case: dict, rho_s: float, rho_l: float, job_class: str) -> dict:
    """One figure sweep point: all three policies at one load point.

    ``case`` is a :class:`~repro.workloads.WorkloadCase` as a field dict.
    Values are NaN beyond a policy's stability boundary, exactly as in the
    in-process sweep; solver diagnostics ride along for the manifest.
    """
    from ..experiments.figures import _policy_point_values
    from ..workloads import WorkloadCase

    params = WorkloadCase(**case).params(rho_s, rho_l)
    values, diagnostics = _policy_point_values(
        params, job_class, with_diagnostics=True
    )
    return {"values": values, "diagnostics": diagnostics}


@register_task("validation-point")
def validation_point(
    case: dict,
    policy: str,
    rho_s: float,
    rho_l: float,
    measured_jobs: int,
    warmup_jobs: int,
    seed: int,
) -> dict:
    """One analysis-vs-simulation comparison (short and long rows).

    Returns ``{"rows": []}`` outside the policy's stability region,
    mirroring the in-process sweep's skip.
    """
    from ..core import CsCqAnalysis, CsIdAnalysis
    from ..simulation import simulate
    from ..workloads import WorkloadCase

    params = WorkloadCase(**case).params(rho_s, rho_l)
    analysis_cls = {"cs-cq": CsCqAnalysis, "cs-id": CsIdAnalysis}[policy]
    try:
        analysis = analysis_cls(params)
        t_short = analysis.mean_response_time_short()
        t_long = analysis.mean_response_time_long()
    except Exception:
        return {"rows": []}  # outside this policy's stability region
    sim = simulate(
        policy, params, seed=seed, warmup_jobs=warmup_jobs, measured_jobs=measured_jobs
    )
    return {
        "rows": [
            {
                "job_class": "short",
                "analytic": t_short,
                "simulated": sim.mean_response_short,
            },
            {
                "job_class": "long",
                "analytic": t_long,
                "simulated": sim.mean_response_long,
            },
        ]
    }


@register_task("oracle-point")
def oracle_point(case: dict, rho_s: float, rho_l: float, config: dict) -> dict:
    """One cross-method consistency verdict (``python -m repro check``).

    Runs the full oracle — QBD analysis, truncated-chain reference,
    replicated simulation with adaptive escalation, invariant contracts —
    and returns the verdict dict.  A ``suspect`` classification sets the
    ``suspect`` flag so the worker shim and the run manifest record the
    point as questionable; ``inconclusive`` maps to ``degraded`` (the
    value is not wrong, just undecided within the escalation budget).
    """
    from ..contracts import OracleConfig, check_point
    from ..workloads import WorkloadCase

    workload = WorkloadCase(**case)
    params = workload.params(rho_s, rho_l)
    # Recompute the label the driver used so perturb faults match it.
    label = f"oracle {workload.name} rho_s={rho_s:g} rho_l={rho_l:g}"
    verdict = check_point(params, OracleConfig.from_dict(config), label=label)
    return {
        **verdict.as_dict(),
        "suspect": verdict.classification == "suspect",
        "degraded": verdict.classification == "inconclusive",
    }


@register_task("replication-point")
def replication_point(
    policy: str,
    params_b64: str,
    seed_root: int,
    index: int,
    n_replications: int,
    warmup_jobs: int,
    measured_jobs: int,
) -> dict:
    """One independent simulation replication.

    The replication's seed is child ``index`` of
    ``SeedSequence(seed_root).spawn(n_replications)`` — identical to the
    in-process path, so orchestrated and direct runs agree bit-for-bit.
    The full :class:`~repro.simulation.engine.SimulationResult` is carried
    back pickled so confidence-interval aggregation loses nothing.
    """
    import numpy as np

    from ..simulation.runner import _resolve

    params = pickle.loads(base64.b64decode(params_b64))
    seed = np.random.SeedSequence(seed_root).spawn(n_replications)[index]
    result = _resolve(policy)(
        params, seed=seed, warmup_jobs=warmup_jobs, measured_jobs=measured_jobs
    ).run()
    return {
        "mean_response_short": result.mean_response_short,
        "mean_response_long": result.mean_response_long,
        "frac_long_host_idle": result.frac_long_host_idle,
        "result_b64": base64.b64encode(pickle.dumps(result)).decode("ascii"),
    }
