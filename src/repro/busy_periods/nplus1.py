"""The busy period ``B_{N+1}`` (paper Table 2 / Section 2.3).

``B_{N+1}`` is "a busy period consisting of only long jobs, and started by
work whose size is the sum of ``N + 1`` long jobs", where ``N`` is the
number of long arrivals during an interval ``E``.  In the paper ``E ~
Exp(2 mu_S)``: the time (in region 5) until one of the two short jobs in
service completes and frees a host for the waiting long job.  With
phase-type shorts ``E`` is the first completion of the two shorts in
service (CS-CQ) or the caught short's remainder (CS-ID), so the moments
below take ``E`` through its first three moments.

Transform (paper Section 2.3, with ``sigma(s) = s + lam_l (1 - B_L~(s))``)::

    B_{N+1}~(s) = X_L~(sigma(s)) * E~(lam_l (1 - X_L~(sigma(s))))

where for ``E ~ Exp(nu)``, ``E~(z) = nu / (nu + z)``.  The moments below
are derived exactly from this transform via the random-sum and
delay-busy-period moment rules.
"""

from __future__ import annotations

from typing import Sequence

from ..distributions import Distribution, Exponential, fit_phase_type, moments_of_sum
from ..perf import cached
from ..robustness import NumericalError
from ..telemetry import span
from .delay_busy import DelayBusyPeriod
from .mg1_busy import MG1BusyPeriod
from .moment_algebra import (
    Moments,
    moments_look_valid,
    poisson_during_ph_factorial_moments,
    random_sum_moments,
)

__all__ = [
    "NPlusOneBusyPeriod",
    "initial_work_moments_nplus1",
    "nplus1_busy_period_moments",
]


def initial_work_moments_nplus1(
    lam_l: float, long_service: Distribution, interval_moments: Sequence[float]
) -> Moments:
    """Moments of ``W = X_L + sum_{i=1}^{N} X_L^{(i)}``.

    ``N`` = Poisson(``lam_l``) arrivals during an interval ``E`` with the
    given first three moments; all job sizes i.i.d. and independent of
    ``N``.
    """
    x_moms = long_service.moments(3)
    fact = poisson_during_ph_factorial_moments(lam_l, interval_moments)
    # W = X + S_N with X independent of (N, summands).
    return moments_of_sum(x_moms, random_sum_moments(fact, x_moms))


def nplus1_busy_period_moments(
    lam_l: float, long_service: Distribution, interval_moments: Sequence[float]
) -> Moments:
    """Return ``(E[B_{N+1}], E[B_{N+1}^2], E[B_{N+1}^3])`` for interval ``E``.

    Memoized under an active :func:`repro.perf.sweep_cache` scope, keyed
    on ``lam_l``, the interval's moment triple and the exact long-service
    moment triple (the only inputs of the derivation).  Raises
    :class:`~repro.robustness.NumericalError` when the derived triple is
    not a feasible moment sequence.
    """
    x_moms = tuple(long_service.moments(3))
    if lam_l == 0.0:
        return x_moms
    interval_moments = tuple(float(m) for m in interval_moments)

    def compute() -> Moments:
        with span(
            "busy.nplus1.moments",
            lam_l=lam_l,
            interval_mean=interval_moments[0],
            rho_l=lam_l * x_moms[0],
        ):
            w_moms = initial_work_moments_nplus1(lam_l, long_service, interval_moments)
            moms = DelayBusyPeriod(w_moms, lam_l, long_service).moments()
            if not moments_look_valid(moms):
                raise NumericalError(
                    f"derived B_(N+1) moments look infeasible: {moms}",
                    moments=tuple(moms),
                )
            return moms

    return cached("busy-moments", ("nplus1", lam_l, interval_moments, x_moms), compute)


class NPlusOneBusyPeriod:
    """The paper's ``B_{N+1}`` busy-period transition duration.

    Parameters
    ----------
    lam_l:
        Arrival rate of long jobs.
    long_service:
        Long job size distribution ``X_L``.
    freeing_rate:
        Rate of the exponential interval ``E`` during which the extra ``N``
        longs accumulate: ``2 mu_S`` in CS-CQ region 5 (first of two
        exponential shorts in service to finish), ``mu_S`` for the caught
        short in CS-ID.
    """

    def __init__(self, lam_l: float, long_service: Distribution, freeing_rate: float):
        if freeing_rate <= 0.0:
            raise ValueError(f"freeing_rate must be positive, got {freeing_rate}")
        self.lam_l = float(lam_l)
        self.long_service = long_service
        self.freeing_rate = float(freeing_rate)
        self.rho_l = self.lam_l * long_service.mean
        if self.rho_l >= 1.0:
            raise ValueError(f"busy period infinite: rho_l = {self.rho_l:.4g} >= 1")
        self._single = MG1BusyPeriod(lam_l, long_service) if lam_l > 0.0 else None
        self._interval_moments = Exponential(self.freeing_rate).moments(3)

    def initial_work_moments(self) -> Moments:
        """Moments of the work that starts the busy period."""
        if self.lam_l == 0.0:
            return self.long_service.moments(3)
        return initial_work_moments_nplus1(
            self.lam_l, self.long_service, self._interval_moments
        )

    def moments(self) -> Moments:
        """Return ``(E[B_{N+1}], E[B_{N+1}^2], E[B_{N+1}^3])``
        (:func:`nplus1_busy_period_moments` with ``E ~ Exp(freeing_rate)``)."""
        return nplus1_busy_period_moments(
            self.lam_l, self.long_service, self._interval_moments
        )

    @property
    def mean(self) -> float:
        """Return ``E[B_{N+1}]``."""
        return self.moments()[0]

    def laplace(self, s: float) -> float:
        """Evaluate the transform of ``B_{N+1}`` at real ``s >= 0``."""
        if self.lam_l == 0.0:
            return float(self.long_service.laplace(s).real)
        sigma = s + self.lam_l * (1.0 - self._single.laplace(s))
        x_sigma = float(self.long_service.laplace(sigma).real)
        nu = self.freeing_rate
        e_part = nu / (nu + self.lam_l * (1.0 - x_sigma))
        return x_sigma * e_part

    def as_phase_type(self):
        """Three-moment phase-type stand-in (the paper's Coxian matching)."""
        return fit_phase_type(*self.moments())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NPlusOneBusyPeriod(lam_l={self.lam_l:.6g}, "
            f"freeing_rate={self.freeing_rate:.6g}, rho_l={self.rho_l:.6g})"
        )
