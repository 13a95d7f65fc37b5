"""Cycle Stealing with Immediate Dispatch (CS-ID).

The ICDCS paper analyzes CS-ID in its companion technical report [9]
(CMU-CS-02-158) by "decomposing the system into two separate stochastic
processes"; the decomposition below is derived independently from the
policy definition and is exact up to the same three-moment busy-period
matching the paper uses:

**Long host (autonomous).**  Under CS-ID the long host's evolution never
depends on the short host.  Regenerating at the instants the long host
becomes free: a free period ``Exp(lam_s + lam_l)`` ends with a short
arrival (probability ``q = lam_s/(lam_s+lam_l)``) that seizes the host for
``X_S``, or a long arrival that starts an ordinary long busy period
``B_L``.  A short in service may be "caught" by a long arrival; the longs
that accumulate during the rest of that short's service then trigger a
delay busy period.  Long jobs therefore see an M/G/1 queue with setup
``I``: ``I = 0`` when the busy-period-starting long found the host truly
idle and ``I =`` the short's remaining service otherwise, whose moments we
derive in closed form from the short-size transform.

**Short host (QBD modulated by the long host).**  The short host is a
QBD whose Poisson(``lam_s``) arrivals are admitted only while the long host
is busy (otherwise the short runs at the long host).  With short service
``PH(beta, S)`` (``k`` phases; exponential shorts are ``k = 1``) a phase is
(donor state) x (service phase of the short at the short host).  The
donor states replay the long host's regenerative cycle: ``IDLE``, ``S(j)``
(short at the long host in phase ``j``, no long waiting), ``S+(j)`` (ditto,
>= 1 long waiting), a PH block for ``B_L``, and a PH block for ``B_{M+1}``
(busy period started by the ``M+1`` longs present when the caught short
finishes; ``M`` = Poisson arrivals during the caught short's remainder,
whose moments :func:`caught_short_remainder_moments` gives exactly).  In
donor state ``IDLE`` a short arrival changes the *phase*, not the level —
this captures exactly the correlation between the hosts that CS-ID
induces.  The donor side is autonomous, so unlike CS-CQ no fixed point is
needed for phase-type shorts.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..busy_periods import MG1BusyPeriod, nplus1_busy_period_moments
from ..distributions import Distribution, Exponential
from ..markov import QbdProcess, QbdSolution, cached_solution
from ..queueing import Mg1SetupQueue
from ..robustness import NumericalError, SolverDiagnostics
from .cs_cq import _kron, _off_diagonal, fit_busy_period
from .params import SystemParameters, UnstableSystemError

__all__ = ["CsIdAnalysis", "LongHostCycle", "caught_short_remainder_moments"]


def caught_short_remainder_moments(
    short_service: Distribution, lam_l: float, upto: int = 3
) -> tuple[float, ...]:
    """Moments of the setup ``I``: remaining short service at the first
    long arrival, conditioned on that arrival landing inside the service.

    With ``h(s) = X_S~(s) - X_S~(lam_l)``, the conditional transform is
    ``I~(s) = lam_l * g(s) / (1 - X_S~(lam_l))`` where
    ``g(s) = h(s) / (lam_l - s)``.  Differentiating ``g (lam_l - s) = h``
    gives the recursion ``g^(k)(0) = (h^(k)(0) + k g^(k-1)(0)) / lam_l``,
    from which ``E[I^k] = (-1)^k I~^(k)(0)`` follows with no numerical
    differentiation.  For exponential shorts this reduces to ``Exp(mu_s)``
    (memorylessness), which the test suite asserts.
    """
    if lam_l <= 0.0:
        raise ValueError(f"lam_l must be positive, got {lam_l}")
    x_at_lam = float(short_service.laplace(lam_l).real)
    p_caught = 1.0 - x_at_lam
    if p_caught <= 0.0:
        raise NumericalError(
            "short service transform degenerate at lam_l", value=x_at_lam
        )
    # h^{(k)}(0): h(0) = 1 - X~(lam_l); h^{(k)}(0) = (-1)^k m_k for k >= 1.
    h_derivs = [1.0 - x_at_lam] + [
        (-1.0) ** k * short_service.moment(k) for k in range(1, upto + 1)
    ]
    g_derivs = [h_derivs[0] / lam_l]
    for k in range(1, upto + 1):
        g_derivs.append((h_derivs[k] + k * g_derivs[k - 1]) / lam_l)
    return tuple(
        (-1.0) ** k * lam_l * g_derivs[k] / p_caught for k in range(1, upto + 1)
    )


class LongHostCycle:
    """Regenerative-cycle analysis of the CS-ID long host.

    Regeneration points: instants the long host becomes free of all work.
    """

    def __init__(
        self,
        params: SystemParameters,
        host_speeds: tuple[float, float] = (1.0, 1.0),
    ):
        if len(host_speeds) != 2 or any(s <= 0.0 for s in host_speeds):
            raise ValueError("host_speeds must be two positive values")
        self.host_speeds = (float(host_speeds[0]), float(host_speeds[1]))
        c_l = self.host_speeds[1]
        # Effective in-service distributions at the (possibly faster or
        # slower) donor host: a job of nominal size X occupies it for X/c_l.
        self.long_eff = (
            params.long_service if c_l == 1.0 else params.long_service.scaled(1.0 / c_l)
        )
        self.short_at_donor = (
            params.short_service
            if c_l == 1.0
            else params.short_service.scaled(1.0 / c_l)
        )
        self.rho_l_eff = params.lam_l * self.long_eff.mean
        if self.rho_l_eff >= 1.0:
            raise UnstableSystemError(
                f"CS-ID long jobs unstable: effective rho_l = "
                f"{self.rho_l_eff:.4g} >= 1"
            )
        self.params = params
        lam_s, lam_l = params.lam_s, params.lam_l
        self.q_short_first = lam_s / (lam_s + lam_l) if lam_s + lam_l > 0 else 0.0
        # Probability a short serving at the long host is caught by a long.
        self.p_caught = (
            1.0 - float(self.short_at_donor.laplace(lam_l).real) if lam_l > 0 else 0.0
        )

    @cached_property
    def mean_cycle_length(self) -> float:
        """Expected regeneration-cycle length of the long host."""
        params = self.params
        lam_s, lam_l = params.lam_s, params.lam_l
        free = 1.0 / (lam_s + lam_l)
        one_minus_rho = 1.0 - self.rho_l_eff
        # Short-initiated branch: the short's service, plus (if >= 1 long
        # arrived during it) a delay busy period started by the longs' work.
        short_branch = self.short_at_donor.mean + (
            lam_l * self.short_at_donor.mean * self.long_eff.mean / one_minus_rho
            if lam_l > 0
            else 0.0
        )
        long_branch = self.long_eff.mean / one_minus_rho if lam_l > 0 else 0.0
        q = self.q_short_first
        return free + q * short_branch + (1.0 - q) * long_branch

    @cached_property
    def prob_idle(self) -> float:
        """Long-run fraction of time the long host is idle (= P a Poisson
        arrival finds it idle, by PASTA)."""
        lam_s, lam_l = self.params.lam_s, self.params.lam_l
        if lam_s + lam_l == 0.0:
            return 1.0
        return (1.0 / (lam_s + lam_l)) / self.mean_cycle_length

    @cached_property
    def prob_setup_zero(self) -> float:
        """P(the long starting a long busy period found the host truly idle).

        Each regeneration round ends the longs' idle period with either a
        long arriving to a free host (no setup) or a long catching a short
        in service (setup = the short's remainder); rounds where a short is
        served without being caught recur.
        """
        q, r = self.q_short_first, self.p_caught
        denom = 1.0 - q * (1.0 - r)
        if denom <= 0.0:
            raise NumericalError("degenerate long-host cycle", value=denom)
        return (1.0 - q) / denom

    @cached_property
    def remainder_moments(self) -> tuple[float, ...]:
        """First three moments of a caught short's remaining service at the
        donor (requires ``lam_l > 0``)."""
        return caught_short_remainder_moments(self.short_at_donor, self.params.lam_l)

    def setup_moments(self) -> tuple[float, float]:
        """First two moments of the mixed setup time of long busy periods."""
        p_zero = self.prob_setup_zero
        if self.params.lam_l <= 0.0 or p_zero >= 1.0:
            return 0.0, 0.0
        i1, i2, _ = self.remainder_moments
        weight = 1.0 - p_zero
        return weight * i1, weight * i2

    def caught_remainder_lst(self, s: complex) -> complex:
        """Transform of the caught short's remainder (the positive setup):
        ``I~(s) = lam_l (X_S~(lam_l) - X_S~(s)) / ((s - lam_l)(1 - X_S~(lam_l)))``
        with the removable singularity at ``s = lam_l`` handled by the
        derivative limit."""
        lam_l = self.params.lam_l
        short = self.short_at_donor
        x_at_lam = complex(short.laplace(lam_l)).real
        if abs(s - lam_l) < 1e-8 * max(1.0, abs(lam_l)):
            # lim_{s->lam} = -lam X~'(lam) / (1 - X~(lam)) via finite diff.
            h = 1e-6 * max(1.0, abs(lam_l))
            deriv = (short.laplace(lam_l + h) - short.laplace(lam_l - h)) / (2 * h)
            return -lam_l * deriv / (1.0 - x_at_lam)
        return (
            lam_l
            * (x_at_lam - short.laplace(s))
            / ((s - lam_l) * (1.0 - x_at_lam))
        )

    def setup_lst(self, s: complex) -> complex:
        """Transform of the mixed setup: atom at 0 plus the remainder."""
        p_zero = self.prob_setup_zero
        if self.params.lam_l <= 0.0 or p_zero >= 1.0:
            return 1.0
        return p_zero + (1.0 - p_zero) * self.caught_remainder_lst(s)

    def _setup_queue(self) -> Mg1SetupQueue:
        return Mg1SetupQueue(
            self.params.lam_l,
            self.long_eff,
            self.setup_moments(),
            setup_lst=self.setup_lst,
        )

    def mean_response_time_long(self) -> float:
        """Mean long response time: M/G/1 with the mixed setup above."""
        return self._setup_queue().mean_response_time()

    def long_response_time_cdf(self, t: float) -> float:
        """``P(T_L <= t)`` — the full long response distribution, via the
        level-crossing transform of the setup queue."""
        return self._setup_queue().response_time_cdf(t)


class CsIdAnalysis:
    """Full CS-ID analysis: long-host cycle + modulated short-host QBD.

    Parameters
    ----------
    params:
        Short service may be any distribution with a phase-type
        representation (exponential shorts give the one-phase chain);
        long service is general.
    n_moments:
        Busy-period moments matched by the PH blocks (default 3).
    host_speeds:
        ``(short_host_speed, long_host_speed)`` relative speeds — the
        heterogeneous-host extension sketched in the paper's conclusion.
        A job of nominal size ``x`` occupies host ``h`` for
        ``x / host_speeds[h]``.  Defaults to the paper's homogeneous model.
    """

    def __init__(
        self,
        params: SystemParameters,
        n_moments: int = 3,
        host_speeds: tuple[float, float] = (1.0, 1.0),
    ):
        self.params = params
        self.n_moments = n_moments
        self.host_speeds = (float(host_speeds[0]), float(host_speeds[1]))
        self.cycle = LongHostCycle(params, host_speeds=self.host_speeds)
        c_s, c_l = self.host_speeds
        # Stability of the short host: admitted rate below service rate.
        p_busy = 1.0 - self.cycle.prob_idle
        if params.lam_s * p_busy * params.short_service.mean / c_s >= 1.0:
            raise UnstableSystemError(
                f"CS-ID short host unstable: rho_s * P(long host busy) = "
                f"{params.rho_s * p_busy / c_s:.4g} >= 1 (Theorem 1)"
            )
        # Service phases of a short at the donor and at the short host.
        self.donor_ph = self.cycle.short_at_donor.as_phase_type()
        self.short_ph = (
            self.donor_ph
            if c_s == c_l
            else params.short_service.scaled(1.0 / c_s).as_phase_type()
        )
        self.k = self.short_ph.n_phases
        if self.short_ph.alpha.sum() < 1.0 - 1e-9:
            raise ValueError("short service PH must have no atom at zero")
        lam_l = params.lam_l
        long_eff = self.cycle.long_eff
        if lam_l > 0.0:
            self.busy_l = MG1BusyPeriod(lam_l, long_eff)
            self._bm1_moments = nplus1_busy_period_moments(
                lam_l, long_eff, self.cycle.remainder_moments
            )
            self._ph_l = fit_busy_period(self.busy_l.moments(), n_moments).as_phase_type()
            self._ph_m1 = fit_busy_period(self._bm1_moments, n_moments).as_phase_type()
        else:
            self.busy_l = None
            self._ph_l = Exponential(1.0).as_phase_type()  # unreachable filler
            self._ph_m1 = self._ph_l

    # ------------------------------------------------------------------
    # Short-host QBD
    # ------------------------------------------------------------------
    def _donor_generator(self) -> np.ndarray:
        """Off-diagonal rates of the donor state (layout: ``IDLE``,
        ``S(k)``, ``S+(k)``, ``B_L``, ``B_{M+1}``)."""
        lam_s, lam_l, k = self.params.lam_s, self.params.lam_l, self.k
        beta, v = self.donor_ph.alpha, self.donor_ph.exit_rates
        s_off = _off_diagonal(self.donor_ph.T)
        k_l, k_m = self._ph_l.n_phases, self._ph_m1.n_phases
        idle = 0
        stolen = slice(1, 1 + k)
        caught = slice(1 + k, 1 + 2 * k)
        busy = slice(1 + 2 * k, 1 + 2 * k + k_l + k_m)  # B_L then B_{M+1}
        bl, bm = slice(busy.start, busy.start + k_l), slice(busy.start + k_l, busy.stop)
        donor = np.zeros((busy.stop, busy.stop))
        donor[idle, stolen] = lam_s * beta  # short dispatched to the idle long host
        donor[idle, bl] = lam_l * self._ph_l.alpha
        donor[stolen, caught] = lam_l * np.eye(k)  # a long catches the short
        donor[stolen, stolen] = s_off
        donor[stolen, idle] = v  # uncaught short finishes at the long host
        donor[caught, caught] = s_off
        donor[caught, bm] = np.outer(v, self._ph_m1.alpha)  # longs take over
        donor[bl, bl] = self._ph_l.T
        donor[bm, bm] = self._ph_m1.T
        donor[busy, busy] = _off_diagonal(donor[busy, busy])
        donor[busy, idle] = np.concatenate([self._ph_l.exit_rates, self._ph_m1.exit_rates])
        return donor

    def _build_qbd(self) -> QbdProcess:
        lam_s = self.params.lam_s
        beta, v = self.short_ph.alpha, self.short_ph.exit_rates
        donor = self._donor_generator()
        d, ident_k = donor.shape[0], np.eye(self.k)
        ident_d = np.eye(d)
        # Short arrivals join the short host in every donor state but IDLE.
        admitted = ident_d.copy()
        admitted[0, 0] = 0.0
        # Level >= 1 phases: (donor state) x (short-host service phase).
        a1 = _kron(donor, ident_k) + _kron(ident_d, _off_diagonal(self.short_ph.T))
        a0 = lam_s * _kron(admitted, ident_k)
        a2 = _kron(ident_d, np.outer(v, beta))  # the short host serves its queue
        return QbdProcess(
            boundary_local=[donor],
            boundary_up=[_kron(admitted, lam_s * beta[None, :])],
            boundary_down=[_kron(ident_d, v[:, None])],
            a0=a0,
            a1=a1,
            a2=a2,
        )

    @cached_property
    def solution(self) -> QbdSolution:
        """Stationary solution of the modulated short-host QBD.

        Keyed on the chain's defining inputs under an active sweep-cache
        scope, so a hit skips the block assembly as well as the solve.
        """
        key = self._solution_cache_key()
        return cached_solution(key, lambda: self._build_qbd().solve())

    def _solution_cache_key(self) -> tuple:
        """``analysis-solution`` cache key (the sweep prefetch checks it to
        skip chains that are already solved)."""
        return (
            "cs-id",
            self.params.lam_s,
            self.params.lam_l,
            self.short_ph.alpha.tobytes(),
            self.short_ph.T.tobytes(),
            self.donor_ph.alpha.tobytes(),
            self.donor_ph.T.tobytes(),
            self._ph_l.alpha.tobytes(),
            self._ph_l.T.tobytes(),
            self._ph_m1.alpha.tobytes(),
            self._ph_m1.T.tobytes(),
        )

    @property
    def solver_diagnostics(self) -> SolverDiagnostics:
        """Diagnostics of the short-host QBD solve (method, rungs, residuals)."""
        return self.solution.diagnostics

    def prob_long_host_idle(self) -> float:
        """P(long host idle), from the QBD phase marginal.

        Must agree with :attr:`LongHostCycle.prob_idle`; asserted in tests
        as an internal consistency check.
        """
        sol = self.solution
        return float(sol.level_vector(0)[0] + sol.phase_marginal()[: self.k].sum())

    # ------------------------------------------------------------------
    # Response times
    # ------------------------------------------------------------------
    def mean_number_short_at_short_host(self) -> float:
        """Mean number of shorts queued or in service at the short host."""
        return self.solution.mean_level()

    def mean_response_time_short(self) -> float:
        """Mean short response time across both dispatch destinations.

        A short arriving to an idle long host runs there immediately
        (response = its own size); otherwise it joins the short host, whose
        mean response follows from Little's law applied to the QBD level.
        """
        if self.params.lam_s <= 0.0:
            raise ValueError("short response time undefined when lam_s == 0")
        p_idle = self.cycle.prob_idle
        mean_n = self.mean_number_short_at_short_host()
        # Rate into the short host is lam_s * P(long host busy) (PASTA).
        rate_short_host = self.params.lam_s * (1.0 - p_idle)
        if rate_short_host <= 0.0:
            return self.cycle.short_at_donor.mean
        t_short_host = mean_n / rate_short_host
        return (
            p_idle * self.cycle.short_at_donor.mean
            + (1.0 - p_idle) * t_short_host
        )

    def mean_response_time_long(self) -> float:
        """Mean long response time (M/G/1 with mixed setup)."""
        if self.params.lam_l <= 0.0:
            raise ValueError("long response time undefined when lam_l == 0")
        return self.cycle.mean_response_time_long()

    def long_response_time_cdf(self, t: float) -> float:
        """``P(T_L <= t)`` — the full long response distribution."""
        if self.params.lam_l <= 0.0:
            raise ValueError("long response time undefined when lam_l == 0")
        return self.cycle.long_response_time_cdf(t)

    def mean_number_short(self) -> float:
        """Mean number of shorts in the whole system (Little's law)."""
        return self.params.lam_s * self.mean_response_time_short()

    def mean_number_long(self) -> float:
        """Mean number of longs in the whole system (Little's law)."""
        return self.params.lam_l * self.mean_response_time_long()
