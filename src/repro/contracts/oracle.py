"""Cross-method consistency oracle with adaptive simulation escalation.

For one parameter point the oracle computes the CS-CQ mean response times
three independent ways — the busy-period-transition QBD analysis, the
brute-force truncated 2D chain (exponential sizes only), and discrete-
event simulation with replication confidence intervals — and classifies
the point:

``agree``
    The analytic pair matches within the modeling tolerance (the QBD
    carries the paper's 3-moment busy-period matching error, so this is
    a *modeling* tolerance, not machine epsilon) and the simulation CI,
    widened by the same tolerance, covers the analytic values.
``suspect``
    Two deterministic methods disagree beyond tolerance, a sufficiently
    tight simulation CI excludes an analytic value, or an invariant
    contract (Little's law, flow balance, normalization, ...) failed.
``inconclusive``
    After exhausting the escalation budget the simulation CI is still
    too wide to decide, and nothing else disagrees.

When the simulation alone cannot decide — its CI is too wide, or tight
but *excluding* an analytic value (finite-horizon transient bias at
heavy load reads low and shrinks as the run lengthens) — the oracle
*escalates*: it doubles the measured and warmup jobs per replication
and reruns, exponentially, up to ``max_escalations`` rounds.
Escalation is skipped when the two deterministic methods already
disagree: no amount of simulation can reconcile those.  Run through the orchestration layer
(``python -m repro check``), each point's escalation loop executes
inside a worker subprocess under the per-point timeout, and finished
verdicts are checkpointed by the PR 2 journal, so a killed or hung
escalation can neither wedge the sweep nor lose completed points.

A deterministic perturbation mode (``repro.orchestration.faults``, mode
``perturb``) multiplies the converged QBD answer by a known factor — a
synthetic silently-wrong solve — so tests and CI can prove the oracle
flags wrong *answers*, not just loud failures.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

from ..core import CsCqAnalysis, CsCqTruncatedChain, SystemParameters
from ..distributions import Exponential
from ..robustness import scale_tolerance, trust_verdict
from .registry import ContractResult, evaluate, rel_diff

__all__ = [
    "MethodComparison",
    "OracleConfig",
    "PointVerdict",
    "check_point",
    "classify_values",
]

CLASSIFICATIONS = ("agree", "suspect", "inconclusive")


@dataclass(frozen=True)
class OracleConfig:
    """Tolerances and budgets of one oracle run (JSON-serializable)."""

    #: Relative tolerance for method-vs-method comparisons.  Dominated by
    #: the QBD's 3-moment busy-period matching error (~1-2% at moderate
    #: load per the paper's own validation), not by solver precision.
    rel_tolerance: float = 0.05
    #: A simulation CI is "tight enough to decide" when its half-width is
    #: below this fraction of its mean; wider intervals trigger escalation.
    max_rel_half_width: float = 0.10
    n_replications: int = 5
    measured_jobs: int = 20_000
    warmup_jobs: int = 4_000
    #: Escalation rounds; round k simulates ``measured_jobs * 2**k``
    #: (after ``warmup_jobs * 2**k`` warmup) per replication, so the
    #: total budget is bounded by twice the last round.
    max_escalations: int = 4
    #: Truncation bounds of the finite-chain reference.
    max_short: int = 300
    max_long: int = 60
    #: Boundary mass above which the truncated reference is not trusted.
    truncation_mass_tol: float = 1e-6
    level: float = 0.95
    seed: int = 20030703

    def as_dict(self) -> dict:
        """Plain-dict form for task kwargs and reports."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: "dict | None") -> "OracleConfig":
        """Rebuild from :meth:`as_dict` output (unknown keys rejected)."""
        return cls(**data) if data else cls()


@dataclass(frozen=True)
class MethodComparison:
    """Three-way comparison of one job class at one point."""

    job_class: str
    classification: str
    analytic: float
    truncated: float = float("nan")
    sim_mean: float = float("nan")
    sim_half_width: float = float("inf")
    sim_rel_half_width: float = float("inf")
    sim_replications: int = 0
    reasons: "tuple[str, ...]" = ()

    def as_dict(self) -> dict:
        return {**asdict(self), "reasons": list(self.reasons)}


@dataclass(frozen=True)
class PointVerdict:
    """The oracle's verdict for one parameter point."""

    label: str
    rho_s: float
    rho_l: float
    classification: str
    comparisons: "tuple[MethodComparison, ...]"
    contracts: "tuple[ContractResult, ...]" = ()
    escalations: int = 0
    measured_jobs_final: int = 0
    perturbed: bool = False
    wall_time: float = 0.0
    #: Numerical-trust record of the answer under test: the solver's
    #: verdict and error bound plus the reported-vs-implied audit term
    #: (None only for verdicts deserialized from pre-trust journals).
    trust: "dict | None" = None

    @property
    def contract_failures(self) -> "tuple[ContractResult, ...]":
        """The failed contract results (empty when everything held)."""
        return tuple(r for r in self.contracts if not r.passed)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "rho_s": self.rho_s,
            "rho_l": self.rho_l,
            "classification": self.classification,
            "comparisons": [c.as_dict() for c in self.comparisons],
            "contracts": [c.as_dict() for c in self.contracts],
            "escalations": self.escalations,
            "measured_jobs_final": self.measured_jobs_final,
            "perturbed": self.perturbed,
            "wall_time": self.wall_time,
            "trust": self.trust,
        }


def classify_values(
    analytic: float,
    truncated: "float | None",
    ci,
    config: OracleConfig,
    trust_bound: "float | None" = None,
) -> "tuple[str, list[str]]":
    """Classify one job class from its three method values.

    ``truncated`` is None when no trusted finite-chain reference exists
    (non-exponential sizes, or excessive truncation mass).  ``ci`` is a
    :class:`~repro.simulation.statistics.ConfidenceInterval` or None.
    ``trust_bound`` is the analytic value's own forward error bound; the
    agreement tolerance is widened by it (never tightened), so a
    near-boundary solve that is honest about carrying fewer digits is not
    condemned for exactly that.
    """
    reasons: "list[str]" = []
    suspect = False
    undecided = False

    if not math.isfinite(analytic):
        return "suspect", ["analytic value is not finite"]

    tolerance = scale_tolerance(config.rel_tolerance, trust_bound)
    if tolerance > config.rel_tolerance:
        reasons.append(
            f"tolerance widened to {tolerance:.3%} by the analytic "
            f"value's error bound {trust_bound:.3g}"
        )

    if truncated is not None:
        difference = rel_diff(analytic, truncated)
        if difference > tolerance:
            suspect = True
            reasons.append(
                f"QBD vs truncated chain disagree by {difference:.3%} "
                f"(> {tolerance:.0%}); deterministic methods "
                "leave no noise excuse"
            )
        else:
            reasons.append(
                f"QBD vs truncated chain agree within {difference:.3%}"
            )

    if ci is not None:
        rel_hw = ci.relative_half_width
        if rel_hw > config.max_rel_half_width:
            undecided = True
            reasons.append(
                f"simulation CI too wide to decide "
                f"(relative half-width {rel_hw:.3f} > "
                f"{config.max_rel_half_width:.3f})"
            )
        else:
            widened = ci.half_width + tolerance * abs(ci.mean)
            gap = abs(analytic - ci.mean)
            if gap > widened:
                suspect = True
                reasons.append(
                    f"analytic value {analytic:.6g} outside the widened "
                    f"simulation interval {ci.mean:.6g} +/- {widened:.6g}"
                )
            else:
                reasons.append(
                    f"analytic value inside the widened simulation interval "
                    f"({gap:.3g} <= {widened:.3g})"
                )

    if suspect:
        return "suspect", reasons
    if undecided:
        return "inconclusive", reasons
    return "agree", reasons


def _sim_cannot_decide(analytic: float, ci, config: OracleConfig) -> bool:
    """True when more simulation could change this class's verdict.

    Either the CI is too wide to decide, or it is tight but excludes the
    analytic value — at heavy load a finite-horizon run reads low
    (initial-transient bias), and that bias shrinks as the horizon
    doubles, so exclusion alone does not yet condemn the analysis.
    """
    if ci.relative_half_width > config.max_rel_half_width:
        return True
    if not math.isfinite(analytic):
        return False
    widened = ci.half_width + config.rel_tolerance * abs(ci.mean)
    return abs(analytic - ci.mean) > widened


def _perturbation_factor(label: str) -> "float | None":
    from ..orchestration import faults

    return faults.perturb_factor(label)


def check_point(
    params: SystemParameters,
    config: "OracleConfig | None" = None,
    label: str = "",
) -> PointVerdict:
    """Run the full oracle at one parameter point.

    Raises typed :class:`~repro.robustness.ReproError` subclasses for
    points where the QBD analysis itself cannot run (outside the
    stability region, invalid inputs); everything that *runs* is
    classified rather than raised.
    """
    config = config or OracleConfig()
    start = time.perf_counter()

    analysis = CsCqAnalysis(params)
    analytic_short = analysis.mean_response_time_short()
    analytic_long = analysis.mean_response_time_long()

    contracts: "list[ContractResult]" = []
    contracts.extend(evaluate("analysis", analysis, params=params))
    contracts.extend(evaluate("solution", analysis.solution))

    # Deterministic perturbation (fault harness mode "perturb"): corrupt
    # the converged QBD answer so the oracle's detection power is testable.
    factor = _perturbation_factor(label)
    perturbed = factor is not None
    if perturbed:
        analytic_short *= factor
        analytic_long *= factor

    # Trust record of the answer under test.  The solver bound covers the
    # honest numerical error of the solve; the audit term re-derives the
    # response times from the solved chain and measures how far the
    # *reported* values drifted from the solution-implied ones — zero for
    # a faithful pipeline, large for a silently corrupted answer (the
    # "perturb" fault above, or any future post-solve bug).  The audit
    # inflates the verdict but never the agreement tolerance: a widened
    # tolerance must excuse conditioning, not corruption.
    solver_diag = analysis.solver_diagnostics
    audit = 0.0
    for reported, implied in (
        (analytic_short, analysis.mean_response_time_short()),
        (analytic_long, analysis.mean_response_time_long()),
    ):
        if math.isfinite(reported) and math.isfinite(implied):
            audit = max(audit, rel_diff(reported, implied))
    solver_bound = solver_diag.error_bound
    trust_bound = None
    if solver_bound is not None or audit > 0.0:
        trust_bound = float(solver_bound or 0.0) + audit
    trust_level = trust_verdict(trust_bound)
    trust_record = {
        "trust": trust_level,
        "error_bound": trust_bound,
        "solver_error_bound": solver_bound,
        "audit_disagreement": audit,
        "condition_estimate": solver_diag.condition_estimate,
        "escalated": solver_diag.escalated,
    }

    truncated_short = truncated_long = float("nan")
    trusted_truncated = False
    exponential_sizes = isinstance(params.short_service, Exponential) and isinstance(
        params.long_service, Exponential
    )
    if exponential_sizes:
        reference = CsCqTruncatedChain(
            params, max_short=config.max_short, max_long=config.max_long
        ).solve()
        truncated_short = reference.mean_response_time_short
        truncated_long = reference.mean_response_time_long
        mass_results = evaluate(
            "truncated", reference, tolerance=config.truncation_mass_tol
        )
        contracts.extend(mass_results)
        # An over-massed truncation disqualifies the *reference*, not the
        # answer under test: drop it from the comparison instead of
        # counting its contract failure against the point.
        trusted_truncated = all(r.passed for r in mass_results)
        if not trusted_truncated:
            contracts = [c for c in contracts if c.name != "truncation-mass"]

    # Simulation with adaptive escalation: double the per-replication
    # warmup and measured job counts until the simulation can decide
    # every class or the budget is exhausted.  When the deterministic
    # pair already disagrees the verdict is sealed — skip the doublings.
    from ..simulation import simulate_replications

    deterministic_disagreement = trusted_truncated and (
        rel_diff(analytic_short, truncated_short) > config.rel_tolerance
        or rel_diff(analytic_long, truncated_long) > config.rel_tolerance
    )
    measured = config.measured_jobs
    warmup = config.warmup_jobs
    escalations = 0
    replicated = None
    while True:
        replicated = simulate_replications(
            "cs-cq",
            params,
            n_replications=config.n_replications,
            seed=config.seed + escalations,
            warmup_jobs=warmup,
            measured_jobs=measured,
            level=config.level,
        )
        if deterministic_disagreement or escalations >= config.max_escalations:
            break
        if not (
            _sim_cannot_decide(analytic_short, replicated.response_short, config)
            or _sim_cannot_decide(analytic_long, replicated.response_long, config)
        ):
            break
        escalations += 1
        measured *= 2
        warmup *= 2
    contracts.extend(
        evaluate("simulation", replicated.replications[0], params=params)
    )

    comparisons = []
    for job_class, analytic, truncated, ci in (
        ("short", analytic_short, truncated_short, replicated.response_short),
        ("long", analytic_long, truncated_long, replicated.response_long),
    ):
        classification, reasons = classify_values(
            analytic,
            truncated if trusted_truncated else None,
            ci,
            config,
            trust_bound=solver_bound,
        )
        comparisons.append(
            MethodComparison(
                job_class=job_class,
                classification=classification,
                analytic=analytic,
                truncated=truncated,
                sim_mean=ci.mean,
                sim_half_width=ci.half_width,
                sim_rel_half_width=ci.relative_half_width,
                sim_replications=ci.n,
                reasons=tuple(reasons),
            )
        )

    classes = {c.classification for c in comparisons}
    untrusted = trust_level == "untrusted"
    if "suspect" in classes or untrusted or any(not c.passed for c in contracts):
        overall = "suspect"
    elif "inconclusive" in classes:
        overall = "inconclusive"
    else:
        overall = "agree"

    return PointVerdict(
        label=label,
        rho_s=params.rho_s,
        rho_l=params.rho_l,
        classification=overall,
        comparisons=tuple(comparisons),
        contracts=tuple(contracts),
        escalations=escalations,
        measured_jobs_final=measured,
        perturbed=perturbed,
        wall_time=time.perf_counter() - start,
        trust=trust_record,
    )
