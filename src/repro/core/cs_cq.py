"""Cycle Stealing with Central Queue (CS-CQ) — the paper's contribution.

The analysis follows Section 2 of the paper exactly:

* The Markov chain tracks the number of short jobs as the (1D-infinite)
  level.  The effect of long jobs is compressed into *busy-period
  transitions* whose durations are ``B_L`` (a long busy period started by a
  single long) and ``B_{N+1}`` (a long busy period started by the work of
  ``N+1`` longs, ``N`` = Poisson arrivals during ``Exp(2 mu_s)``).
* Each busy-period transition is replaced by a small phase-type
  distribution matched on the busy period's first three moments (the
  paper's 2-stage Coxian; we fall back to a slightly larger acyclic PH for
  triples outside the Coxian-2 region).
* The resulting QBD is solved by matrix-analytic methods; the mean short
  response time follows from Little's law.
* Long jobs see an M/G/1 queue with setup time ``I``, where ``I = 0`` if
  the busy-period-starting long arrived in region 1 (zero longs, at most
  one short in service) and ``I ~ Exp(2 mu_s)`` if it arrived in region 2
  (zero longs, two shorts in service), with probabilities read off the
  solved chain.

Phase layout of the repeating levels (``n >= 2`` short jobs)::

    0               ZERO_L  - no long jobs; shorts served by both hosts
    1 .. kL         B_L     - long busy period in progress (PH stage i)
    kL+1 .. kL+kN   B_{N+1} - "renamed-host" busy period in progress
    kL+kN+1         WAIT    - long waiting for the first of 2 shorts

Boundary levels 0 and 1 lack the WAIT phase (region 5 needs two shorts in
service) and enter ``B_L`` directly on a long arrival (region 1 -> 3).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional, Union

import numpy as np

from ..busy_periods import MG1BusyPeriod, NPlusOneBusyPeriod
from ..distributions import (
    Distribution,
    Exponential,
    coxian_from_mean_scv,
    fit_phase_type,
)
from ..markov import QbdProcess, QbdSolution, cached_solution
from ..queueing import Mg1SetupQueue
from ..robustness import (
    NearBoundaryWarning,
    NumericalError,
    ReproError,
    SolverDiagnostics,
    trust_verdict,
)
from ..telemetry import span
from .params import SystemParameters, UnstableSystemError

__all__ = ["CsCqAnalysis", "RegionProbabilities", "cs_cq_long_response_saturated"]


@dataclass(frozen=True)
class RegionProbabilities:
    """Stationary probabilities of the paper's regions 1 and 2.

    Region 1: zero longs and at most one short (a host is idle).
    Region 2: zero longs and two shorts in service (both hosts busy).
    The conditional probability of region 2 given "zero longs" determines
    the long jobs' setup time.
    """

    region1: float
    region2: float

    @property
    def p_setup_zero(self) -> float:
        """P(busy-period-starting long waits 0) = P(region 1 | region 1 or 2)."""
        total = self.region1 + self.region2
        if total <= 0.0:
            raise NumericalError(
                "regions 1 and 2 have zero probability",
                region1=self.region1,
                region2=self.region2,
            )
        return self.region1 / total


def fit_busy_period(moments: tuple[float, float, float], n_moments: int) -> Distribution:
    """Phase-type stand-in for a busy period, matching ``n_moments`` moments.

    ``n_moments = 3`` is the paper's choice; 1 and 2 exist for the ablation
    study ("three moments provide sufficient accuracy").
    """
    m1, m2, m3 = moments
    if n_moments == 3:
        return fit_phase_type(m1, m2, m3)
    if n_moments == 2:
        scv = m2 / (m1 * m1) - 1.0
        return coxian_from_mean_scv(m1, scv)
    if n_moments == 1:
        return Exponential(1.0 / m1)
    raise ValueError(f"n_moments must be 1, 2 or 3, got {n_moments}")


def cs_cq_long_response_saturated(params: SystemParameters) -> float:
    """Mean long response time under CS-CQ when short jobs are *overloaded*.

    Figure 6 (row 2) plots the long jobs for all ``rho_l < 1`` even where
    the shorts are unstable (``rho_s >= 2 - rho_l``).  In that regime the
    short queue is eventually never empty, so every long busy period starts
    with both hosts serving shorts and the setup is ``Exp(2 mu_s)`` with
    probability one; longs remain stable because they still receive one
    host's worth of capacity.
    """
    if params.rho_l >= 1.0:
        raise UnstableSystemError(
            f"CS-CQ long jobs unstable: rho_l = {params.rho_l:.4g} >= 1"
        )
    nu = 2.0 * params.mu_s
    queue = Mg1SetupQueue(
        params.lam_l, params.long_service, (1.0 / nu, 2.0 / (nu * nu))
    )
    return queue.mean_response_time()


class CsCqAnalysis:
    """Matrix-analytic solution of CS-CQ via busy-period transitions.

    Parameters
    ----------
    params:
        System parameters; short service must be exponential (the chain
        assumption of Section 2.2 — long service is fully general).
    n_moments:
        How many busy-period moments to match (default 3, as in the paper).
    degrade_near_boundary:
        When True (the default) and the exact QBD solve fails with a typed
        :class:`~repro.robustness.ReproError` *within* ``boundary_margin``
        of the stability boundary, fall back to the finite-level
        :class:`~repro.core.cs_cq_truncated.CsCqTruncatedChain` (possible
        for exponential longs only) and attach a
        :class:`~repro.robustness.NearBoundaryWarning` instead of crashing
        — so figure sweeps complete end-to-end.
    boundary_margin:
        Relative distance to the boundary that arms the fallback: degrade
        when ``(2 - rho_l) - rho_s <= boundary_margin * (2 - rho_l)``.
    """

    def __init__(
        self,
        params: SystemParameters,
        n_moments: int = 3,
        degrade_near_boundary: bool = True,
        boundary_margin: float = 0.05,
    ):
        self.params = params
        self.n_moments = n_moments
        self.degrade_near_boundary = degrade_near_boundary
        self.boundary_margin = boundary_margin
        if params.rho_l >= 1.0:
            raise UnstableSystemError(
                f"CS-CQ long jobs unstable: rho_l = {params.rho_l:.4g} >= 1"
            )
        if params.rho_s >= 2.0 - params.rho_l:
            raise UnstableSystemError(
                f"CS-CQ short jobs unstable: rho_s = {params.rho_s:.4g} >= "
                f"2 - rho_l = {2.0 - params.rho_l:.4g} (Theorem 1)"
            )
        self.mu_s = params.mu_s  # validates the exponential-short assumption

        lam_l, long_service = params.lam_l, params.long_service
        self.busy_l = MG1BusyPeriod(lam_l, long_service)
        self.busy_n1 = NPlusOneBusyPeriod(lam_l, long_service, freeing_rate=2.0 * self.mu_s)
        self._ph_l = fit_busy_period(self.busy_l.moments(), n_moments).as_phase_type()
        self._ph_n1 = fit_busy_period(self.busy_n1.moments(), n_moments).as_phase_type()

    # ------------------------------------------------------------------
    # Graceful degradation near the stability boundary
    # ------------------------------------------------------------------
    def _near_boundary(self) -> bool:
        capacity = 2.0 - self.params.rho_l
        return capacity - self.params.rho_s <= self.boundary_margin * capacity

    def _can_degrade(self) -> bool:
        return (
            self.degrade_near_boundary
            and self._near_boundary()
            and isinstance(self.params.short_service, Exponential)
            and isinstance(self.params.long_service, Exponential)
        )

    @cached_property
    def _outcome(self) -> tuple[str, Union[QbdSolution, "TruncatedResult"]]:
        """``("qbd", QbdSolution)`` or ``("truncated", TruncatedResult)``.

        The truncated branch only arms when the exact solve raised a typed
        error near the boundary and both size distributions are exponential
        (the truncated chain's requirement); otherwise the error propagates.
        """
        with span(
            "analysis.cs_cq",
            rho_s=self.params.rho_s,
            rho_l=self.params.rho_l,
        ) as analysis_span:
            kind, value = self._solve_outcome()
            analysis_span.set("mode", kind)
        return kind, value

    def _solution_cache_key(self) -> tuple:
        """``analysis-solution`` cache key: the chain's defining inputs
        (rates + exact PH representations), so a sweep-cache hit skips the
        block assembly as well as the solve.  The sweep prefetch checks
        it to skip chains that are already solved."""
        return (
            "cs-cq",
            self.params.lam_s,
            self.params.lam_l,
            self.mu_s,
            self._ph_l.alpha.tobytes(),
            self._ph_l.T.tobytes(),
            self._ph_n1.alpha.tobytes(),
            self._ph_n1.T.tobytes(),
        )

    def _solve_outcome(self) -> tuple[str, Union[QbdSolution, "TruncatedResult"]]:
        try:
            key = self._solution_cache_key()
            return "qbd", cached_solution(key, lambda: self._build_qbd().solve())
        except ReproError as exc:
            if not self._can_degrade():
                raise
            self._degraded_from = exc
            warnings.warn(
                NearBoundaryWarning(
                    f"CS-CQ exact QBD solve failed at rho_s={self.params.rho_s:.4g}, "
                    f"rho_l={self.params.rho_l:.4g} ({type(exc).__name__}: {exc.message}); "
                    "falling back to the truncated finite-level solver — results "
                    "carry truncation error"
                ),
                stacklevel=2,
            )
            from .cs_cq_truncated import CsCqTruncatedChain

            chain = CsCqTruncatedChain(self.params, max_short=250, max_long=120)
            return "truncated", chain.solve()

    @property
    def degraded(self) -> bool:
        """True when results come from the truncated fallback solver."""
        return self._outcome[0] == "truncated"

    @property
    def solver_diagnostics(self) -> SolverDiagnostics:
        """Diagnostics of the solve that produced this analysis' numbers."""
        kind, value = self._outcome
        if kind == "qbd":
            return value.diagnostics
        exc = getattr(self, "_degraded_from", None)
        # The finite-level chain's dominant error source is the mass it
        # truncates away, so that is the forward error bound; a degraded
        # result never earns full trust even when the mass is tiny.
        bound = float(value.truncation_mass)
        verdict = trust_verdict(bound)
        if verdict == "trusted":
            verdict = "suspect"
        return SolverDiagnostics(
            method="truncated-fallback",
            degraded=True,
            notes=(
                f"exact solve failed: {exc}" if exc is not None else "exact solve failed",
                f"truncation mass {value.truncation_mass:.3g}",
            ),
            error_bound=bound,
            trust=verdict,
        )

    # ------------------------------------------------------------------
    # Chain construction
    # ------------------------------------------------------------------
    def _build_qbd(self) -> QbdProcess:
        lam_s, lam_l, mu_s = self.params.lam_s, self.params.lam_l, self.mu_s
        alpha_l, t_mat_l = self._ph_l.alpha, self._ph_l.T
        alpha_n, t_mat_n = self._ph_n1.alpha, self._ph_n1.T
        exit_l, exit_n = self._ph_l.exit_rates, self._ph_n1.exit_rates
        k_l, k_n = len(alpha_l), len(alpha_n)

        mb = 1 + k_l + k_n  # boundary phases: ZERO_L + B_L + B_N
        m = mb + 1  # repeating adds WAIT
        wait = m - 1
        bl = slice(1, 1 + k_l)
        bn = slice(1 + k_l, 1 + k_l + k_n)

        def ph_internal(block: np.ndarray) -> None:
            """Install both PH internal transitions and exits to ZERO_L."""
            sub_l = t_mat_l - np.diag(np.diag(t_mat_l))
            sub_n = t_mat_n - np.diag(np.diag(t_mat_n))
            block[bl, bl] += sub_l
            block[bn, bn] += sub_n
            block[bl, 0] += exit_l
            block[bn, 0] += exit_n

        # Repeating within-level block A1 (off-diagonal rates only).
        a1 = np.zeros((m, m))
        ph_internal(a1)
        a1[0, wait] = lam_l  # region 2 -> region 5

        # Up: every phase gains a short at rate lam_s, phase preserved.
        a0 = lam_s * np.eye(m)

        # Down: short completions.
        a2 = np.zeros((m, m))
        a2[0, 0] = 2.0 * mu_s  # both hosts on shorts
        a2[bl, bl] = mu_s * np.eye(k_l)
        a2[bn, bn] = mu_s * np.eye(k_n)
        a2[wait, bn] = 2.0 * mu_s * alpha_n  # region 5 -> B_{N+1} starts

        # Boundary levels 0 and 1 (no WAIT phase; long arrival starts B_L).
        local = np.zeros((mb, mb))
        ph_internal(local)
        local[0, bl] = lam_l * alpha_l  # region 1 -> region 3

        up0 = lam_s * np.eye(mb)  # level 0 -> 1 (same phase set)
        up1 = np.zeros((mb, m))
        up1[:, :mb] = lam_s * np.eye(mb)  # level 1 -> 2 (embed into repeating)

        down1to0 = np.zeros((mb, mb))
        down1to0[0, 0] = mu_s  # one short in service
        down1to0[bl, bl] = mu_s * np.eye(k_l)
        down1to0[bn, bn] = mu_s * np.eye(k_n)

        down2to1 = np.zeros((m, mb))
        down2to1[0, 0] = 2.0 * mu_s
        down2to1[bl, bl] = mu_s * np.eye(k_l)
        down2to1[bn, bn] = mu_s * np.eye(k_n)
        down2to1[wait, bn] = 2.0 * mu_s * alpha_n

        return QbdProcess(
            boundary_local=[local, local.copy()],
            boundary_up=[up0, up1],
            boundary_down=[down1to0, down2to1],
            a0=a0,
            a1=a1,
            a2=a2,
        )

    @property
    def solution(self) -> QbdSolution:
        """Stationary solution of the busy-period-transition QBD.

        Raises the original solver error when the analysis degraded to the
        truncated fallback (which has no matrix-geometric solution); the
        mean-value accessors keep working in that mode.
        """
        kind, value = self._outcome
        if kind != "qbd":
            raise self._degraded_from
        return value

    # ------------------------------------------------------------------
    # Short jobs
    # ------------------------------------------------------------------
    def mean_number_short(self) -> float:
        """Mean number of short jobs in the system, ``E[N_S]``."""
        kind, value = self._outcome
        return value.mean_level() if kind == "qbd" else value.mean_number_short

    def mean_response_time_short(self) -> float:
        """Mean response time of short jobs (Little's law on the chain)."""
        if self.params.lam_s <= 0.0:
            raise ValueError("short response time undefined when lam_s == 0")
        return self.mean_number_short() / self.params.lam_s

    def queue_length_distribution_short(self, max_n: int) -> np.ndarray:
        """Return ``P(N_S = n)`` for ``n = 0..max_n``."""
        return np.array(
            [self.solution.level_probability(n) for n in range(max_n + 1)]
        )

    # ------------------------------------------------------------------
    # Long jobs
    # ------------------------------------------------------------------
    def region_probabilities(self) -> RegionProbabilities:
        """Stationary probabilities of regions 1 and 2 (paper Section 2.4)."""
        sol = self.solution
        region1 = float(sol.level_vector(0)[0] + sol.level_vector(1)[0])
        region2 = float(sol.phase_marginal()[0])  # ZERO_L at levels >= 2
        return RegionProbabilities(region1=region1, region2=region2)

    def setup_moments(self) -> tuple[float, float]:
        """First two moments of the long jobs' setup time ``I``.

        ``I = 0`` w.p. ``P(region 1 | region 1 or 2)``, else
        ``I ~ Exp(2 mu_s)`` (first of the two shorts in service finishes,
        thanks to host renaming).
        """
        p_zero = self.region_probabilities().p_setup_zero
        nu = 2.0 * self.mu_s
        q = 1.0 - p_zero
        return q / nu, 2.0 * q / (nu * nu)

    def setup_lst(self, s: complex) -> complex:
        """Transform of the setup mixture: atom at 0 plus ``Exp(2 mu_s)``."""
        p_zero = self.region_probabilities().p_setup_zero
        nu = 2.0 * self.mu_s
        return p_zero + (1.0 - p_zero) * nu / (nu + s)

    def _setup_queue(self) -> Mg1SetupQueue:
        return Mg1SetupQueue(
            self.params.lam_l,
            self.params.long_service,
            self.setup_moments(),
            setup_lst=self.setup_lst,
        )

    def mean_response_time_long(self) -> float:
        """Mean long-job response time: M/G/1 with setup (paper Section 2.4)."""
        if self.params.lam_l <= 0.0:
            raise ValueError("long response time undefined when lam_l == 0")
        kind, value = self._outcome
        if kind == "truncated":
            return value.mean_response_time_long
        return self._setup_queue().mean_response_time()

    def long_response_time_cdf(self, t: float) -> float:
        """``P(T_L <= t)`` — the full long response distribution (beyond
        the paper's means), via the setup queue's level-crossing transform
        and Laplace inversion."""
        if self.params.lam_l <= 0.0:
            raise ValueError("long response time undefined when lam_l == 0")
        return self._setup_queue().response_time_cdf(t)

    def mean_number_long(self) -> float:
        """Mean number of long jobs (Little's law on the setup queue)."""
        return self.params.lam_l * self.mean_response_time_long()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def diagnostics(self) -> dict[str, Any]:
        """Solver internals for debugging and research.

        Returns the busy-period moments, the phase counts of their fitted
        stand-ins, the spectral radius of the geometric tail (the chain's
        effective utilization — response times diverge as it approaches
        1), the region probabilities, and the
        :class:`~repro.robustness.SolverDiagnostics` of the underlying
        solve (under ``"solver"``).  In degraded (truncated-fallback) mode
        only the solver record and the degradation flag are meaningful.
        """
        out: dict[str, Any] = {
            "busy_l_moments": self.busy_l.moments(),
            "busy_n1_moments": self.busy_n1.moments(),
            "ph_l_phases": self._ph_l.n_phases,
            "ph_n1_phases": self._ph_n1.n_phases,
            "degraded": self.degraded,
            "solver": self.solver_diagnostics,
        }
        if not self.degraded:
            sol = self.solution
            regions = self.region_probabilities()
            out.update(
                {
                    "phases_per_level": sol.r_matrix.shape[0],
                    "tail_spectral_radius": sol.tail_spectral_radius,
                    "region1": regions.region1,
                    "region2": regions.region2,
                    "p_setup_zero": regions.p_setup_zero,
                }
            )
        return out
