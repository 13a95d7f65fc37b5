"""The M/G/1 busy period ``B_L`` (paper Table 2 / Section 2.3).

``B_L`` is "a busy period consisting of only long jobs, and started by a
single long job".  Both the closed-form moments and a numeric transform
evaluator (via the Kendall functional equation) are provided; the latter is
used for validation and for plugging the busy period into transform-level
computations.
"""

from __future__ import annotations

from ..distributions import Distribution, fit_phase_type
from ..perf import cached
from ..telemetry import span
from .moment_algebra import Moments, mg1_busy_period_moments

__all__ = ["MG1BusyPeriod"]


class MG1BusyPeriod:
    """Busy period of an M/G/1 queue with arrival rate ``lam`` and service ``X``.

    Parameters
    ----------
    lam:
        Poisson arrival rate of the (long) jobs.
    service:
        Service-time distribution of the jobs making up the busy period.
    """

    def __init__(self, lam: float, service: Distribution):
        if lam < 0.0:
            raise ValueError(f"arrival rate must be nonnegative, got {lam}")
        self.lam = float(lam)
        self.service = service
        self.rho = self.lam * service.mean
        if self.rho >= 1.0:
            raise ValueError(
                f"busy period is infinite: rho = {self.rho:.4g} >= 1"
            )

    def moments(self) -> Moments:
        """Return ``(E[B], E[B^2], E[B^3])`` in closed form.

        Memoized under an active :func:`repro.perf.sweep_cache` scope,
        keyed on ``lam`` and the exact service-moment triple (the only
        inputs of the closed form).
        """
        if self.lam == 0.0:
            return self.service.moments(3)
        x_moms = self.service.moments(3)

        def compute() -> Moments:
            with span("busy.mg1.moments", lam=self.lam, rho=self.rho):
                return mg1_busy_period_moments(self.lam, x_moms)

        return cached("busy-moments", ("mg1", self.lam, tuple(x_moms)), compute)

    @property
    def mean(self) -> float:
        """Return ``E[B] = E[X]/(1-rho)``."""
        return self.moments()[0]

    def laplace(self, s: float, tol: float = 1e-13, max_iter: int = 100000) -> float:
        """Evaluate ``B~(s)`` by iterating the Kendall functional equation.

        ``B~(s) = X~(s + lam - lam B~(s))`` has a unique fixed point in
        ``[0, 1]`` for real ``s >= 0``; successive substitution starting from
        0 converges monotonically.  Small negative ``s`` (within the region
        of analyticity, used by the finite-difference validator) also
        converges to the analytic continuation when ``rho < 1``.
        """
        b = 0.0
        for _ in range(max_iter):
            nxt = float(self.service.laplace(s + self.lam - self.lam * b).real)
            if abs(nxt - b) < tol:
                return nxt
            b = nxt
        return b

    def laplace_complex(
        self, s: complex, tol: float = 1e-12, max_iter: int = 100000
    ) -> complex:
        """Evaluate ``B~(s)`` for complex ``s`` with ``Re(s) > 0``.

        The Kendall fixed point is contractive on the unit disk for
        ``Re(s) > 0``; needed by the Laplace-inversion-based CDF.
        """
        b = 0.0 + 0.0j
        for _ in range(max_iter):
            nxt = complex(self.service.laplace(s + self.lam - self.lam * b))
            if abs(nxt - b) < tol:
                return nxt
            b = nxt
        return b

    def cdf(self, t: float) -> float:
        """``P(B <= t)`` by numerical inversion of the Kendall transform.

        A distribution-level result the paper never needs (it matches
        moments), used here to quantify how much of the busy period's
        shape the three-moment Coxian captures.
        """
        if t <= 0.0:
            return 0.0
        from ..transforms import cdf_from_lst

        return cdf_from_lst(self.laplace_complex, t)

    def as_phase_type(self):
        """Three-moment phase-type stand-in (the paper's Coxian matching)."""
        return fit_phase_type(*self.moments())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MG1BusyPeriod(lam={self.lam:.6g}, rho={self.rho:.6g})"
