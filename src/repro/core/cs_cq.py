"""Cycle Stealing with Central Queue (CS-CQ) — the paper's contribution.

The analysis follows Section 2 of the paper:

* The Markov chain tracks the number of short jobs as the (1D-infinite)
  level.  The effect of long jobs is compressed into *busy-period
  transitions* whose durations are ``B_L`` (a long busy period started by a
  single long) and ``B_{N+1}`` (a long busy period started by the work of
  ``N+1`` longs, ``N`` = Poisson arrivals during the interval ``E`` until
  one of the two shorts in service completes).
* Each busy-period transition is replaced by a small phase-type
  distribution matched on the busy period's first three moments (the
  paper's 2-stage Coxian; we fall back to a slightly larger acyclic PH for
  triples outside the Coxian-2 region).
* The resulting QBD is solved by matrix-analytic methods; the mean short
  response time follows from Little's law.
* Long jobs see an M/G/1 queue with setup time ``I``, where ``I = 0`` if
  the busy-period-starting long arrived in region 1 (zero longs, at most
  one short in service) and ``I = E`` if it arrived in region 2 (zero
  longs, two shorts in service), with probabilities read off the solved
  chain.

Section 2.2 assumes exponential shorts "for simplicity in specifying the
Markov chain" and notes the chain is "straightforward to generalize using
any phase-type distribution".  The chain here is that generalization:
with short service ``PH(beta, S)`` (``k`` phases, exit vector ``v``) the
phases carry the service phase of every short in service.  Phase layout of
the repeating levels (``n >= 2`` short jobs)::

    Z    (k^2)     no long jobs; two shorts in service, joint phase (i, j)
    BL   (kL x k)  B_L in progress (PH stage) x phase of the served short
    BN   (kN x k)  B_{N+1} in progress x phase of the served short
    W    (k^2)     region 5: a long waits for the first of 2 shorts

Level 1 has ``Z1`` (``k``), ``BL`` and ``BN``; level 0 has ``EMPTY``,
``BL`` (``kL``) and ``BN`` (``kN``).  Boundary levels lack ``W`` (region 5
needs two shorts in service) and enter ``B_L`` directly on a long arrival
(region 1 -> 3).  Exponential shorts are ``k = 1``: the layout collapses to
the paper's ``ZERO_L, B_L, B_{N+1}, WAIT``.

``E`` is the first completion of the two shorts in service, started from
the stationary region-2 joint phase ``eta``.  For ``k = 1`` it is
``Exp(2 mu_s)`` and ``eta = [1]``.  For ``k > 1`` ``eta`` depends on the
solution, so the chain is re-solved until ``eta`` reproduces itself
(``max |delta eta| <= FIXED_POINT_TOL``); with one phase that test passes
after the first solve.  As in the paper, the region-5 sojourn and the
following busy period are treated as independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from ..busy_periods import MG1BusyPeriod, nplus1_busy_period_moments
from ..distributions import (
    Distribution,
    Exponential,
    PhaseType,
    coxian_from_mean_scv,
    fit_phase_type,
)
from ..markov import QbdProcess, QbdSolution, cached_solution
from ..queueing import Mg1SetupQueue
from ..robustness import ConvergenceError, NumericalError, SolverDiagnostics
from ..telemetry import span
from .params import SystemParameters, UnstableSystemError

__all__ = [
    "CsCqAnalysis",
    "RegionProbabilities",
    "cs_cq_long_response_saturated",
    "first_completion_moments",
    "first_completion_of_two",
]

#: Most chain solves the ``eta`` fixed point may take.
MAX_FIXED_POINT_ITER = 30
#: Convergence threshold on ``max |delta eta|`` between successive solves.
FIXED_POINT_TOL = 1e-10


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-D arrays by broadcasting (same products)."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def _off_diagonal(t_mat: np.ndarray) -> np.ndarray:
    return t_mat - np.diag(np.diag(t_mat))


def _pair_generator(short_ph: PhaseType) -> np.ndarray:
    """Kronecker sum ``S (+) S``: the joint phase of two parallel services."""
    ident = np.eye(short_ph.n_phases)
    return _kron(short_ph.T, ident) + _kron(ident, short_ph.T)


def first_completion_of_two(
    short_ph: PhaseType, joint_initial: np.ndarray
) -> PhaseType:
    """PH of the time until the FIRST of two parallel PH services completes.

    The joint phase process lives on ``k^2`` states with generator the
    Kronecker sum ``S (+) S``; either job's exit absorbs.  ``joint_initial``
    is a distribution over ordered phase pairs (row-major ``i * k + j``).
    """
    k = short_ph.n_phases
    joint_initial = np.asarray(joint_initial, dtype=float).reshape(k * k)
    return PhaseType(joint_initial, _pair_generator(short_ph))


def first_completion_moments(
    short_ph: PhaseType, joint_initial: np.ndarray
) -> tuple[float, float, float]:
    """First three moments of :func:`first_completion_of_two`, computed
    directly: ``E[E^n] = n! eta (-(S (+) S))^{-n} 1``."""
    sojourn = np.linalg.inv(-_pair_generator(short_ph))
    vec = np.ones(sojourn.shape[0])
    moments = []
    for n in (1, 2, 3):
        vec = sojourn @ vec
        moments.append(math.factorial(n) * float(joint_initial @ vec))
    return tuple(moments)


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
        System parameters.  Short service may be any distribution with a
        phase-type representation (exponential shorts give the paper's
        chain); long service is fully general (moments).
    n_moments:
        How many busy-period moments to match (default 3, as in the paper).

    The chain is solved on first use.  A solve that fails (near the
    stability boundary, say) raises its typed
    :class:`~repro.robustness.ReproError` from every accessor that needs
    the solution; nothing answers from an approximation in its place.
    """

    def __init__(self, params: SystemParameters, n_moments: int = 3):
        self.params = params
        self.n_moments = n_moments
        if params.rho_l >= 1.0:
            raise UnstableSystemError(
                f"CS-CQ long jobs unstable: rho_l = {params.rho_l:.4g} >= 1"
            )
        if params.rho_s >= 2.0 - params.rho_l:
            raise UnstableSystemError(
                f"CS-CQ short jobs unstable: rho_s = {params.rho_s:.4g} >= "
                f"2 - rho_l = {2.0 - params.rho_l:.4g} (Theorem 1)"
            )
        self.short_ph = params.short_service.as_phase_type()
        self.k = self.short_ph.n_phases
        beta = self.short_ph.alpha
        if beta.sum() < 1.0 - 1e-9:
            raise ValueError("short service PH must have no atom at zero")

        self.busy_l = MG1BusyPeriod(params.lam_l, params.long_service)
        self._ph_l = fit_busy_period(self.busy_l.moments(), n_moments).as_phase_type()
        # First guess for the region-2 joint phase: a fresh pair of shorts.
        self._fit_bn1(np.outer(beta, beta).ravel())

    def _fit_bn1(self, eta: np.ndarray) -> None:
        """Fit the PH stand-in for ``B_{N+1}`` given the region-2 joint
        phase ``eta`` in which the interval ``E`` starts."""
        self._eta = eta
        self._interval_moments = first_completion_moments(self.short_ph, eta)
        self._bn1_moments = nplus1_busy_period_moments(
            self.params.lam_l, self.params.long_service, self._interval_moments
        )
        self._ph_n1 = fit_busy_period(self._bn1_moments, self.n_moments).as_phase_type()

    def _solution_cache_key(self) -> tuple:
        """``analysis-solution`` cache key: the chain's defining inputs
        (rates + exact PH representations of the short service and of the
        current busy-period fits), so a sweep-cache hit skips the block
        assembly as well as the solve.  The sweep prefetch checks it to
        skip chains that are already solved."""
        return (
            "cs-cq",
            self.params.lam_s,
            self.params.lam_l,
            self.short_ph.alpha.tobytes(),
            self.short_ph.T.tobytes(),
            self._ph_l.alpha.tobytes(),
            self._ph_l.T.tobytes(),
            self._ph_n1.alpha.tobytes(),
            self._ph_n1.T.tobytes(),
        )

    def _fixed_point(self) -> QbdSolution:
        """Solve the chain until the region-2 joint phase ``eta`` it reads
        off its solution is the one its ``B_{N+1}`` fit started from."""
        change = math.inf
        for _ in range(MAX_FIXED_POINT_ITER):
            solution = cached_solution(
                self._solution_cache_key(), lambda: self._build_qbd().solve()
            )
            z_mass = solution.phase_marginal()[: self.k * self.k]
            total = z_mass.sum()
            if total <= 0.0:
                return solution  # region 2 unreachable (lam_l == 0): exact
            eta = z_mass / total
            change = float(np.abs(eta - self._eta).max())
            if change <= FIXED_POINT_TOL:
                return solution
            self._fit_bn1(eta)
        raise ConvergenceError(
            "CS-CQ phase-type fixed point did not converge",
            residual=change,
            iterations=MAX_FIXED_POINT_ITER,
        )

    @property
    def solver_diagnostics(self) -> SolverDiagnostics:
        """Diagnostics of the solve that produced this analysis' numbers."""
        return self.solution.diagnostics

    # ------------------------------------------------------------------
    # Chain construction
    # ------------------------------------------------------------------
    def _build_qbd(self) -> QbdProcess:
        """The chain for the current ``B_{N+1}`` fit (the first fixed-point
        iteration on a fresh analysis)."""
        lam_s, lam_l, k = self.params.lam_s, self.params.lam_l, self.k
        beta, v = self.short_ph.alpha, self.short_ph.exit_rates
        k_l, k_n = self._ph_l.n_phases, self._ph_n1.n_phases
        kk, kb = k * k, k_l + k_n
        ident, ident_b = np.eye(k), np.eye(kb)
        s_off = _off_diagonal(self.short_ph.T)
        # Both in-service shorts move through their phases independently.
        pair_internal = _kron(s_off, ident) + _kron(ident, s_off)
        # One of two shorts (i, j) completes: rate into the survivor's phase.
        completion = _kron(v[:, None], ident) + _kron(ident, v[:, None])
        # A freed host starts the next queued short: survivor i -> (i, new).
        start_next = _kron(ident, beta[None, :])
        # The busy-period stages B_L then B_{N+1}, one block-diagonal PH.
        t_busy = np.zeros((kb, kb))
        t_busy[:k_l, :k_l] = self._ph_l.T
        t_busy[k_l:, k_l:] = self._ph_n1.T
        t_busy = _off_diagonal(t_busy)
        exits = np.concatenate([self._ph_l.exit_rates, self._ph_n1.exit_rates])

        m, d1, d0 = 2 * kk + kb * k, k + kb * k, 1 + kb
        z, busy, w = slice(0, kk), slice(kk, m - kk), slice(m - kk, m)
        z1, busy1, busy0 = slice(0, k), slice(k, d1), slice(1, d0)
        bn, bn1 = slice(kk + k_l * k, m - kk), slice(k + k_l * k, d1)
        a1, a2 = np.zeros((m, m)), np.zeros((m, m))
        local0, local1 = np.zeros((d0, d0)), np.zeros((d1, d1))
        up0, up1 = np.zeros((d0, d1)), np.zeros((d1, m))
        down1, down2 = np.zeros((d1, d0)), np.zeros((m, d1))

        # Two shorts in service (Z) and region 5 (W).
        a1[z, z] = pair_internal
        a1[z, w] = lam_l * np.eye(kk)  # region 2 -> region 5
        a1[w, w] = pair_internal
        a2[z, z] = completion @ start_next
        down2[z, z1] = completion  # the survivor continues alone
        # Region 5 ends at the first short completion: the freed host takes
        # the long and B_{N+1} starts with the survivor still in service.
        a2[w, bn] = _kron(self._ph_n1.alpha[None, :], completion)
        down2[w, bn1] = a2[w, bn]
        # One short in service at level 1 (Z1); the empty system at level 0.
        local1[z1, z1] = s_off
        up0[0, z1] = lam_s * beta  # the arrival starts service at once
        up1[z1, z] = lam_s * start_next  # the second host takes the arrival
        down1[z1, 0] = v
        # A long arriving in region 1 takes the idle host: B_L starts.
        local0[0, 1 : 1 + k_l] = lam_l * self._ph_l.alpha
        local1[z1, k : k + k_l * k] = _kron(lam_l * self._ph_l.alpha[None, :], ident)
        # Busy-period phases: PH stage x phase of the one short in service.
        # A stage exit frees a host, which starts the next queued short.
        internal = _kron(t_busy, ident) + _kron(ident_b, s_off)
        served = _kron(ident_b, np.outer(v, beta))  # queued short replaces it
        a1[busy, busy] = internal
        a1[busy, z] = _kron(exits[:, None], start_next)
        a2[busy, busy] = served
        local1[busy1, busy1] = internal
        local1[busy1, z1] = _kron(exits[:, None], ident)
        local0[busy0, busy0] = t_busy
        local0[busy0, 0] = exits
        up0[busy0, busy1] = _kron(ident_b, lam_s * beta[None, :])
        up1[busy1, busy] = lam_s * np.eye(kb * k)
        down1[busy1, busy0] = _kron(ident_b, v[:, None])
        down2[busy, busy1] = served

        return QbdProcess(
            boundary_local=[local0, local1],
            boundary_up=[up0, up1],
            boundary_down=[down1, down2],
            a0=lam_s * np.eye(m),
            a1=a1,
            a2=a2,
        )

    @cached_property
    def solution(self) -> QbdSolution:
        """Stationary solution of the busy-period-transition QBD (at the
        ``eta`` fixed point); a failed solve raises its typed error."""
        with span("analysis.cs_cq", rho_s=self.params.rho_s, rho_l=self.params.rho_l):
            return self._fixed_point()

    # ------------------------------------------------------------------
    # Short jobs
    # ------------------------------------------------------------------
    def mean_number_short(self) -> float:
        """Mean number of short jobs in the system, ``E[N_S]``."""
        return self.solution.mean_level()

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
        region1 = float(sol.level_vector(0)[0] + sol.level_vector(1)[: self.k].sum())
        region2 = float(sol.phase_marginal()[: self.k * self.k].sum())
        return RegionProbabilities(region1=region1, region2=region2)

    def setup_moments(self) -> tuple[float, float]:
        """First two moments of the long jobs' setup time ``I``.

        ``I = 0`` w.p. ``P(region 1 | region 1 or 2)``, else ``I = E``, the
        first completion of the two shorts in service (``Exp(2 mu_s)`` for
        exponential shorts, thanks to host renaming).
        """
        q = 1.0 - self.region_probabilities().p_setup_zero
        e1, e2, _ = self._interval_moments
        return q * e1, q * e2

    @cached_property
    def _interval_ph(self) -> PhaseType:
        """``E`` as a phase type, from the converged ``eta`` (read after
        the solve)."""
        return first_completion_of_two(self.short_ph, self._eta)

    def setup_lst(self, s: complex) -> complex:
        """Transform of the setup mixture: atom at 0 plus ``E``."""
        p_zero = self.region_probabilities().p_setup_zero
        return p_zero + (1.0 - p_zero) * self._interval_ph.laplace(s)

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
        solve (under ``"solver"``).
        """
        sol = self.solution
        regions = self.region_probabilities()
        return {
            "busy_l_moments": self.busy_l.moments(),
            "busy_n1_moments": self._bn1_moments,
            "ph_l_phases": self._ph_l.n_phases,
            "ph_n1_phases": self._ph_n1.n_phases,
            "solver": self.solver_diagnostics,
            "phases_per_level": sol.r_matrix.shape[0],
            "tail_spectral_radius": sol.tail_spectral_radius,
            "region1": regions.region1,
            "region2": regions.region2,
            "p_setup_zero": regions.p_setup_zero,
        }
