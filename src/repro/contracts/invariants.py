"""The concrete invariant contracts.

Registered at import time (importing :mod:`repro.contracts` is enough).
Grouped by subject kind:

``solution``  — raw :class:`~repro.markov.qbd.QbdSolution` checks:
    normalization, nonnegativity, solver residual bounds, and a
    closed-form-vs-brute-force consistency check of the geometric-tail
    moment algebra.
``analysis``  — policy-level checks: Little's law per job class, region
    probabilities forming a distribution fragment, and short-job flow
    balance through the CS-CQ chain (throughput in = throughput out).
``truncated`` — :class:`~repro.core.cs_cq_truncated.TruncatedResult`
    checks: the truncation must hold negligible boundary mass to be
    trusted as an oracle reference.
``simulation`` — :class:`~repro.simulation.engine.SimulationResult`
    checks: response = waiting + service decomposition against the known
    ``E[X]`` (tolerance scaled by sampling noise), and sanity of the
    summary fields.
``point``     — cross-policy dominance at one load point (the paper's
    Section 3 ordering: CS-CQ beats CS-ID beats Dedicated for shorts,
    and the reverse penalty ordering for longs).
``series``    — monotonicity of mean response time (equivalently mean
    slowdown, since ``E[X]`` is fixed along a sweep) in the swept load.
"""

from __future__ import annotations

import math

import numpy as np

from .registry import ContractResult, _require_finite, contract, rel_diff

__all__ = ["check_monotone_series", "point_dominance_results"]

#: Tolerances, by check character: identities that must hold to round-off
#: get EXACT; cross-representation consistency (closed form vs partial
#: sums) gets CONSISTENCY; anything fed by sampling noise computes its own.
EXACT = 1e-8
CONSISTENCY = 1e-5
PROB_SLACK = 1e-9
#: Levels per block of the tail-moment partial sum (a power of two).
_TAIL_BLOCK = 256


# --------------------------------------------------------------------- #
# solution: raw QbdSolution invariants
# --------------------------------------------------------------------- #


@contract(
    "stationary-normalization",
    "solution",
    "total stationary mass (boundary + geometric tail) equals 1",
)
def _normalization(solution) -> ContractResult:
    total = _require_finite(solution.total_mass(), "total stationary mass")
    return ContractResult(
        name="stationary-normalization",
        passed=abs(total - 1.0) <= 1e-6,
        observed=total,
        expected=1.0,
        tolerance=1e-6,
    )


@contract(
    "nonnegative-probabilities",
    "solution",
    "no stationary sub-vector entry is materially negative",
)
def _nonnegative(solution) -> ContractResult:
    vectors = [*solution.boundary_pi, solution.pi_repeat, solution.phase_marginal()]
    lowest = min(float(np.min(v)) for v in vectors if v.size)
    if not math.isfinite(lowest):
        lowest = float("-inf")
    return ContractResult(
        name="nonnegative-probabilities",
        passed=lowest >= -PROB_SLACK,
        observed=lowest,
        expected=0.0,
        tolerance=PROB_SLACK,
    )


@contract(
    "balance-residual",
    "solution",
    "recorded solver residuals stay below the trust bounds",
)
def _balance_residual(solution) -> "list[ContractResult] | None":
    diag = solution.diagnostics
    if diag is None:
        return None
    results = []
    for label, value in (
        ("quadratic", diag.residual),
        ("boundary", diag.boundary_residual),
    ):
        if value is None:
            continue
        value = float(value)
        passed = math.isfinite(value) and value <= 1e-6
        results.append(
            ContractResult(
                name="balance-residual",
                passed=passed,
                observed=value,
                expected=0.0,
                tolerance=1e-6,
                detail=f"{label} residual",
            )
        )
    return results or None


@contract(
    "tail-moment-consistency",
    "solution",
    "closed-form E[level] matches brute-force level-by-level summation",
)
def _tail_moment(solution) -> "ContractResult | None":
    # The closed form is pi_b (I-R)^{-1}/(I-R)^{-2} algebra; the partial
    # sum adds P(level = b+k) = pi_b R^k 1 level by level — an independent
    # route to the same number, which is exactly what catches a mis-solved
    # R or boundary.  It walks the tail in blocks of _TAIL_BLOCK levels:
    # the columns R^k 1 for k < _TAIL_BLOCK are built once by doubling, so
    # one block costs a vector-matrix product for its level masses and
    # one multiply by R^_TAIL_BLOCK to reach the next block.  Level l is
    # added while the mass before it is below 1 - 1e-13 and l < 200,000,
    # so the last block stops at the level the rule names, not its end.
    sp_r = float(solution.tail_spectral_radius)
    if sp_r > 0.9995:  # partial sums would need ~1e5 levels; undecidable
        return None
    closed = _require_finite(solution.mean_level(), "closed-form mean level")
    partial = 0.0
    mass = 0.0
    for level, vector in enumerate(solution.boundary_pi):
        contribution = float(vector.sum())
        partial += level * contribution
        mass += contribution
    r = solution.r_matrix
    columns = np.ones((r.shape[0], 1))
    power = r
    while columns.shape[1] < _TAIL_BLOCK:
        columns = np.hstack([columns, power @ columns])
        power = power @ power
    offsets = np.arange(_TAIL_BLOCK)
    vector = np.array(solution.pi_repeat, dtype=float)
    level = solution.first_repeating_level
    while mass < 1.0 - 1e-13 and level < 200_000:
        masses = vector @ columns
        running = mass + np.cumsum(masses)
        before = np.concatenate(([mass], running[:-1]))
        keep = (before < 1.0 - 1e-13) & (level + offsets < 200_000)
        count = _TAIL_BLOCK if keep.all() else int(np.argmin(keep))
        partial += float((level + offsets[:count]) @ masses[:count])
        mass = float(running[count - 1])
        level += count
        vector = vector @ power
    return ContractResult(
        name="tail-moment-consistency",
        passed=rel_diff(partial, closed) <= CONSISTENCY,
        observed=partial,
        expected=closed,
        tolerance=CONSISTENCY,
        detail=f"summed {level} levels, mass {mass:.12f}",
    )


# --------------------------------------------------------------------- #
# analysis: policy-level invariants
# --------------------------------------------------------------------- #


def _littles_law(analysis, params, job_class: str) -> "ContractResult | None":
    lam = params.lam_s if job_class == "short" else params.lam_l
    number_fn = getattr(analysis, f"mean_number_{job_class}", None)
    response_fn = getattr(analysis, f"mean_response_time_{job_class}", None)
    if lam <= 0.0 or number_fn is None or response_fn is None:
        return None
    observed = _require_finite(number_fn(), f"E[N_{job_class}]")
    expected = lam * _require_finite(response_fn(), f"E[T_{job_class}]")
    return ContractResult(
        name=f"littles-law-{job_class}",
        passed=rel_diff(observed, expected) <= EXACT,
        observed=observed,
        expected=expected,
        tolerance=EXACT,
        detail=f"E[N] vs lambda E[T], lambda={lam:g}",
    )


@contract(
    "littles-law-short",
    "analysis",
    "E[N_S] = lambda_S E[T_S] on the analytic result",
)
def _littles_short(analysis, params=None) -> "ContractResult | None":
    params = params if params is not None else analysis.params
    return _littles_law(analysis, params, "short")


@contract(
    "littles-law-long",
    "analysis",
    "E[N_L] = lambda_L E[T_L] on the analytic result",
)
def _littles_long(analysis, params=None) -> "ContractResult | None":
    params = params if params is not None else analysis.params
    return _littles_law(analysis, params, "long")


@contract(
    "region-probability-fragment",
    "analysis",
    "CS-CQ regions 1 and 2 form a probability fragment with a valid mixture",
)
def _region_fragment(analysis, params=None) -> "list[ContractResult] | None":
    if not hasattr(analysis, "region_probabilities"):
        return None
    regions = analysis.region_probabilities()
    region1 = _require_finite(regions.region1, "region 1 probability")
    region2 = _require_finite(regions.region2, "region 2 probability")
    p_zero = _require_finite(regions.p_setup_zero, "P(setup = 0)")
    total = region1 + region2
    return [
        ContractResult(
            name="region-probability-fragment",
            passed=(
                region1 >= -PROB_SLACK
                and region2 >= -PROB_SLACK
                and total <= 1.0 + PROB_SLACK
            ),
            observed=total,
            expected=1.0,
            tolerance=PROB_SLACK,
            detail="0 <= P(region 1) + P(region 2) <= 1",
        ),
        ContractResult(
            name="region-probability-fragment",
            passed=-PROB_SLACK <= p_zero <= 1.0 + PROB_SLACK,
            observed=p_zero,
            expected=0.5,
            tolerance=PROB_SLACK,
            detail="P(setup = 0) is a probability",
        ),
    ]


@contract(
    "short-throughput-balance",
    "analysis",
    "short departure rate through the CS-CQ chain equals lambda_S",
)
def _short_throughput(analysis, params=None) -> "ContractResult | None":
    """Flow balance: in steady state shorts leave as fast as they arrive.

    The departure rate weights each state's stationary mass by the exit
    rates of the shorts in service there, read off the short-service phase
    type rather than the chain's blocks.  That exercises the stationary
    vector in a way none of the mean-value formulas do, and catches a
    chain whose completion rates disagree with the service distribution.
    """
    from ..core import CsCqAnalysis

    params = params if params is not None else analysis.params
    if not isinstance(analysis, CsCqAnalysis) or params.lam_s <= 0.0:
        return None
    solution = analysis.solution
    exits = analysis.short_ph.exit_rates
    busy_phases = analysis._ph_l.n_phases + analysis._ph_n1.n_phases
    # Level 1 (boundary): one short in service whatever the phase.
    level1 = solution.level_vector(1) @ np.tile(exits, 1 + busy_phases)
    # Levels >= 2 (repeating): Z and W serve two shorts (joint phase
    # (i, j)), the busy-period phases one (the other host works the long
    # busy period).
    pair = (exits[:, None] + exits[None, :]).ravel()
    weights = np.concatenate([pair, np.tile(exits, busy_phases), pair])
    observed = float(level1 + solution.phase_marginal() @ weights)
    return ContractResult(
        name="short-throughput-balance",
        passed=rel_diff(observed, params.lam_s) <= 1e-6,
        observed=observed,
        expected=params.lam_s,
        tolerance=1e-6,
        detail="state-weighted service rate vs arrival rate",
    )


# --------------------------------------------------------------------- #
# truncated: finite-chain reference trustworthiness
# --------------------------------------------------------------------- #


@contract(
    "truncation-mass",
    "truncated",
    "stationary mass on the truncation boundary is negligible",
)
def _truncation_mass(result, tolerance: float = 1e-6) -> ContractResult:
    mass = _require_finite(result.truncation_mass, "truncation mass")
    return ContractResult(
        name="truncation-mass",
        passed=mass <= tolerance,
        observed=mass,
        expected=0.0,
        tolerance=tolerance,
        detail="P(n_s == max_short or n_l == max_long)",
    )


# --------------------------------------------------------------------- #
# simulation: summary sanity + decomposition identities
# --------------------------------------------------------------------- #


def _decomposition(result, params, job_class: str) -> "ContractResult | None":
    n = getattr(result, f"n_measured_{job_class}")
    if n < 100:  # too few jobs for the noise model to mean anything
        return None
    response = _require_finite(
        getattr(result, f"mean_response_{job_class}"), f"E[T_{job_class}]"
    )
    waiting = _require_finite(
        getattr(result, f"mean_waiting_{job_class}"), f"E[W_{job_class}]"
    )
    dist = params.short_service if job_class == "short" else params.long_service
    mean = _require_finite(dist.mean, "service mean")
    if mean <= 0.0:
        return None
    # Per job, response = waiting + service exactly, so the means differ
    # from E[X] only by the sampling error of the measured service draws:
    # ~ cv/sqrt(n) relative, given an 8-sigma allowance.
    m2 = float(dist.moment(2)) if hasattr(dist, "moment") else float("nan")
    cv = math.sqrt(max(m2 - mean * mean, 0.0)) / mean if math.isfinite(m2) else 1.0
    tolerance = max(0.02, 8.0 * cv / math.sqrt(n))
    observed = response - waiting
    return ContractResult(
        name=f"sim-response-decomposition-{job_class}",
        passed=rel_diff(observed, mean) <= tolerance,
        observed=observed,
        expected=mean,
        tolerance=tolerance,
        detail=f"mean response minus mean waiting vs E[X] over {n} jobs",
    )


@contract(
    "sim-response-decomposition-short",
    "simulation",
    "simulated short response minus waiting recovers E[X_S]",
)
def _sim_decomposition_short(result, params=None) -> "ContractResult | None":
    if params is None:
        return None
    return _decomposition(result, params, "short")


@contract(
    "sim-response-decomposition-long",
    "simulation",
    "simulated long response minus waiting recovers E[X_L]",
)
def _sim_decomposition_long(result, params=None) -> "ContractResult | None":
    if params is None:
        return None
    return _decomposition(result, params, "long")


@contract(
    "sim-summary-sane",
    "simulation",
    "simulation summary fields are finite, nonnegative and consistent",
)
def _sim_sane(result, params=None) -> "list[ContractResult]":
    idle = _require_finite(result.frac_long_host_idle, "long-host idle fraction")
    checks = [
        ContractResult(
            name="sim-summary-sane",
            passed=-PROB_SLACK <= idle <= 1.0 + PROB_SLACK,
            observed=idle,
            expected=0.5,
            tolerance=PROB_SLACK,
            detail="long-host idle fraction is a probability",
        )
    ]
    for job_class in ("short", "long"):
        if getattr(result, f"n_measured_{job_class}") == 0:
            continue
        waiting = _require_finite(
            getattr(result, f"mean_waiting_{job_class}"), f"E[W_{job_class}]"
        )
        checks.append(
            ContractResult(
                name="sim-summary-sane",
                passed=waiting >= -1e-12,
                observed=waiting,
                expected=0.0,
                tolerance=1e-12,
                detail=f"mean {job_class} waiting time is nonnegative",
            )
        )
    return checks


# --------------------------------------------------------------------- #
# point: cross-policy dominance at one load point
# --------------------------------------------------------------------- #

_DOMINANCE_SLACK = 1e-6

#: Expected orderings (paper Section 3): lists of labels from best to
#: worst for each job class; NaN (unstable/skipped) entries break the
#: chain at that link without failing it.
_ORDERINGS = {
    "short": ("CS-Central-Q", "CS-Immed-Disp", "Dedicated"),
    "long": ("Dedicated", "CS-Central-Q", "CS-Immed-Disp"),
}


def point_dominance_results(
    values: "dict[str, float]", job_class: str
) -> "list[ContractResult]":
    """Dominance-ordering results for one sweep point's value dict."""
    ordering = _ORDERINGS.get(job_class)
    if ordering is None:
        return []
    results = []
    for better, worse in zip(ordering, ordering[1:]):
        lo = values.get(better)
        hi = values.get(worse)
        if lo is None or hi is None:
            continue
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            continue  # a NaN link means a policy was unstable there
        slack = _DOMINANCE_SLACK * max(abs(lo), abs(hi), 1.0)
        results.append(
            ContractResult(
                name=f"dominance-{job_class}",
                passed=lo <= hi + slack,
                observed=lo,
                expected=hi,
                tolerance=slack,
                detail=f"{better} must not exceed {worse} for {job_class} jobs",
            )
        )
    return results


@contract(
    "dominance-short",
    "point",
    "short jobs: CS-CQ <= CS-ID <= Dedicated mean response time",
)
def _dominance_short(values, job_class=None) -> "list[ContractResult] | None":
    if job_class != "short":
        return None
    return point_dominance_results(values, "short") or None


@contract(
    "dominance-long",
    "point",
    "long jobs: Dedicated <= CS-CQ <= CS-ID mean response time",
)
def _dominance_long(values, job_class=None) -> "list[ContractResult] | None":
    if job_class != "long":
        return None
    return point_dominance_results(values, "long") or None


# --------------------------------------------------------------------- #
# series: monotonicity across sweep points
# --------------------------------------------------------------------- #


def check_monotone_series(
    xs, ys, label: str = "", slack: float = 1e-6
) -> "list[ContractResult]":
    """Mean response (slowdown) must be nondecreasing in the swept load.

    With fixed size distributions, heavier load can only slow a work-
    conserving policy down; a decrease between adjacent sweep points
    means at least one of the two solves is wrong.  NaN points (beyond a
    stability boundary, or failed and skipped) break the comparison
    chain without failing it.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    results = []
    previous = None  # (x, y) of the last finite point
    for x, y in zip(xs, ys):
        if not (math.isfinite(x) and math.isfinite(y)):
            previous = None
            continue
        if previous is not None:
            x0, y0 = previous
            allowance = slack * max(abs(y0), abs(y), 1.0)
            if y < y0 - allowance:
                results.append(
                    ContractResult(
                        name="monotone-in-load",
                        passed=False,
                        observed=y,
                        expected=y0,
                        tolerance=allowance,
                        detail=(
                            f"{label} decreased from {y0:.6g} at x={x0:g} "
                            f"to {y:.6g} at x={x:g}"
                        ),
                    )
                )
        previous = (x, y)
    if not results:
        results.append(
            ContractResult(
                name="monotone-in-load",
                passed=True,
                observed=float("nan"),
                expected=float("nan"),
                tolerance=slack,
                detail=label,
            )
        )
    return results


@contract(
    "monotone-in-load",
    "series",
    "mean response time is nondecreasing in the swept load",
)
def _monotone(series, label: str = "", slack: float = 1e-6):
    xs, ys = series
    return check_monotone_series(xs, ys, label=label, slack=slack)
