"""Moment-matching: build small phase-type distributions from three moments.

This is the approximation step at the heart of the paper (Section 2.2,
footnote 2): every generally-distributed quantity — the long job sizes and,
crucially, the busy-period transition durations ``B_L`` and ``B_{N+1}`` — is
replaced by a Coxian matched on its first three moments.  The paper cites
Osogami & Harchol-Balter's representability conditions for 2-stage Coxians;
for moment triples a 2-stage Coxian cannot hit (low variability), we fall
back to a mixture of two common-order Erlangs (Johnson & Taaffe), which is
still an acyclic phase type and slots into the same QBD machinery.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..perf import cached
from ..robustness import ReproError, ensure_finite_scalar
from ..telemetry import span
from .base import Distribution
from .coxian import Coxian, coxian2
from .exponential import Exponential
from .hyperexponential import Hyperexponential
from .moments import check_feasible_moments
from .phase_type import PhaseType

__all__ = [
    "fit_coxian2",
    "fit_mixed_erlang",
    "fit_phase_type",
    "coxian_from_mean_scv",
    "FittingError",
]


class FittingError(ReproError, ValueError):
    """Raised when no representation is found for a moment triple.

    Part of the :class:`~repro.robustness.ReproError` taxonomy (and still a
    ``ValueError`` for backward compatibility).
    """


def _exponential_if_close(m1: float, m2: float, m3: float) -> Optional[Exponential]:
    """Return Exponential(1/m1) when the triple matches one almost exactly."""
    exp_m2 = 2.0 * m1 * m1
    exp_m3 = 6.0 * m1 * m1 * m1
    if math.isclose(m2, exp_m2, rel_tol=1e-9) and math.isclose(m3, exp_m3, rel_tol=1e-9):
        return Exponential(1.0 / m1)
    return None


def fit_coxian2(m1: float, m2: float, m3: float) -> Coxian:
    """Fit a 2-stage Coxian to three raw moments (exact match).

    Writing ``x = 1/mu1``, ``u = p/mu2`` (so the mean is ``x + u``), the
    moment equations reduce to the quadratic::

        (m1^2 - m2/2) x^2 + (m3/6 - m1 m2 / 2) x + (m2^2/4 - m1 m3 / 6) = 0

    A root is admissible when ``0 < x <= m1``, the implied second stage has
    a positive rate, and the continuation probability lies in ``(0, 1]``.

    Raises
    ------
    FittingError
        If no admissible root exists (the triple is outside the 2-stage
        Coxian representability region of Osogami & Harchol-Balter).
    """
    check_feasible_moments(m1, m2, m3)
    exp = _exponential_if_close(m1, m2, m3)
    if exp is not None:
        # Degenerate Coxian: second stage never entered.
        return Coxian([exp.rate, exp.rate], [0.0])

    a = m1 * m1 - m2 / 2.0
    b = m3 / 6.0 - m1 * m2 / 2.0
    c = m2 * m2 / 4.0 - m1 * m3 / 6.0

    if math.isclose(a, 0.0, abs_tol=1e-14 * m1 * m1):
        roots = [] if math.isclose(b, 0.0, abs_tol=1e-300) else [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            raise FittingError(
                f"moments ({m1}, {m2}, {m3}) are not 2-stage-Coxian representable "
                f"(negative discriminant {disc})"
            )
        sq = math.sqrt(disc)
        # Numerically stable quadratic roots (avoids catastrophic
        # cancellation when |a| is tiny, i.e. scv close to 1).
        if b >= 0.0:
            q = -(b + sq) / 2.0
        else:
            q = -(b - sq) / 2.0
        roots = [q / a]
        if q != 0.0:
            roots.append(c / q)

    for x in sorted(roots):
        if not 0.0 < x <= m1 * (1.0 + 1e-12):
            continue
        u = m1 - x
        if u <= 1e-14 * m1:
            # p == 0 forces an exponential, which can only be right when the
            # whole triple is exponential-consistent (handled above) — e.g.
            # (1, 2, 8) has scv == 1 but is not Coxian-2 representable.
            continue
        y = (m2 / 2.0 - m1 * x) / u
        if y <= 0.0:
            continue
        p = u / y
        if not 0.0 < p <= 1.0 + 1e-12:
            continue
        return coxian2(1.0 / x, 1.0 / y, min(p, 1.0))

    raise FittingError(
        f"moments ({m1}, {m2}, {m3}) are not 2-stage-Coxian representable"
    )


def fit_mixed_erlang(
    m1: float, m2: float, m3: float, max_order: int = 64
) -> PhaseType:
    """Fit a mixture of two Erlangs of common order to three raw moments.

    For order ``k``, a mixture of ``Erlang(k, 1/x1)`` and ``Erlang(k, 1/x2)``
    has moments ``m_j = [(k+j-1)!/(k-1)!] * E[Z^j]`` where ``Z`` is a
    two-point random variable on the stage means ``x1, x2``.  Matching thus
    reduces to the classical two-atom moment problem for the normalized
    moments.  Increasing ``k`` reaches arbitrarily low variability
    (``scv >= 1/k``); ``k == 1`` recovers the standard three-moment
    hyperexponential fit.
    """
    check_feasible_moments(m1, m2, m3)
    exp = _exponential_if_close(m1, m2, m3)
    if exp is not None:
        return exp.as_phase_type()

    for k in range(1, max_order + 1):
        nu1 = m1 / k
        nu2 = m2 / (k * (k + 1))
        nu3 = m3 / (k * (k + 1) * (k + 2))
        denom = nu2 - nu1 * nu1
        if denom <= 0.0:
            continue  # needs a higher order (variability below 1/k)
        a = (nu3 - nu1 * nu2) / denom
        b = a * nu1 - nu2
        disc = a * a - 4.0 * b
        if disc < 0.0:
            continue
        sq = math.sqrt(disc)
        x1 = (a + sq) / 2.0
        x2 = (a - sq) / 2.0
        if x1 <= 0.0 or x2 <= 0.0 or math.isclose(x1, x2, rel_tol=1e-14):
            continue
        q = (nu1 - x2) / (x1 - x2)
        if not 0.0 <= q <= 1.0:
            continue
        return _erlang_mixture_ph(k, [(q, 1.0 / x1), (1.0 - q, 1.0 / x2)])

    raise FittingError(
        f"no mixed-Erlang representation of order <= {max_order} for "
        f"moments ({m1}, {m2}, {m3})"
    )


def _erlang_mixture_ph(k: int, branches: list[tuple[float, float]]) -> PhaseType:
    """Build the PH for a mixture of Erlang(k, rate) branches."""
    branches = [(w, r) for w, r in branches if w > 1e-15]
    n = k * len(branches)
    T = np.zeros((n, n))
    alpha = np.zeros(n)
    for i, (weight, rate) in enumerate(branches):
        base = i * k
        alpha[base] = weight
        for j in range(k):
            T[base + j, base + j] = -rate
            if j + 1 < k:
                T[base + j, base + j + 1] = rate
    return PhaseType(alpha, T)


def fit_phase_type(m1: float, m2: float, m3: float) -> Distribution:
    """Fit a small acyclic phase-type distribution to three raw moments.

    Tries the paper's 2-stage Coxian first; falls back to a common-order
    Erlang mixture when the triple is outside the Coxian-2 region *or* when
    the Coxian solve loses precision (possible for scv extremely close to
    1, where the defining quadratic degenerates).  The returned
    distribution reproduces all three moments (verified in the test suite
    with hypothesis round-trip properties).

    Inside an active :func:`repro.perf.sweep_cache` scope the fit is
    memoized on the exact moment triple; the fitted distributions are
    immutable, so the cached object is shared.
    """
    return cached(
        "ph-fit", (float(m1), float(m2), float(m3)), lambda: _fit_phase_type(m1, m2, m3)
    )


def _fit_phase_type(m1: float, m2: float, m3: float) -> Distribution:
    def round_trip_ok(dist: Distribution) -> bool:
        return all(
            math.isclose(dist.moment(k), target, rel_tol=1e-7)
            for k, target in ((1, m1), (2, m2), (3, m3))
        )

    with span("fit.phase_type", m1=m1, m2=m2, m3=m3) as fit_span:
        try:
            fitted = fit_coxian2(m1, m2, m3)
            if round_trip_ok(fitted):
                fit_span.set("kind", type(fitted).__name__)
                return fitted
        except FittingError:
            pass
        fitted = fit_mixed_erlang(m1, m2, m3)
        if not round_trip_ok(fitted):
            raise FittingError(
                f"no numerically clean phase-type representation found for "
                f"moments ({m1}, {m2}, {m3})"
            )
        fit_span.set("kind", type(fitted).__name__)
        fit_span.set("fallback", "mixed-erlang")
        return fitted


def coxian_from_mean_scv(mean: float, scv: float) -> Distribution:
    """Two-moment fit used for the paper's "Coxian with C^2 = 8" workloads.

    For ``scv > 1`` this is the textbook 2-stage Coxian with
    ``mu1 = 2/mean``, ``mu2 = 1/(mean * scv)``, ``p = 1/(2 * scv)``
    (the parameterization implied by "Coxian distribution with appropriate
    mean and squared coefficient of variation" in Figures 5-6).  ``scv == 1``
    returns an exponential; ``1/2 <= scv < 1`` still admits the Coxian-2
    formula; lower variability falls back to an Erlang-like fit on an
    implied third moment.
    """
    mean = ensure_finite_scalar(mean, "mean")
    scv = ensure_finite_scalar(scv, "scv")
    if mean <= 0.0:
        raise ValueError(f"mean must be positive, got {mean}")
    if scv <= 0.0:
        raise ValueError(f"scv must be positive, got {scv}")
    if math.isclose(scv, 1.0, rel_tol=1e-12):
        return Exponential(1.0 / mean)
    if scv >= 0.5:
        return coxian2(2.0 / mean, 1.0 / (mean * scv), 1.0 / (2.0 * scv))
    # Low variability: match (mean, scv) with an Erlang-dominant mixture by
    # synthesizing the exponential-like third moment for that scv.
    m2 = (1.0 + scv) * mean * mean
    # Gamma-consistent third moment: E[X^3] = m1^3 (1+scv)(1+2 scv).
    # A finite-but-huge mean overflows the cube; that is a rejected input,
    # not a crash (float pow raises OverflowError, products go inf).
    try:
        m3 = mean**3 * (1.0 + scv) * (1.0 + 2.0 * scv)
    except OverflowError:
        m3 = float("inf")
    if not (math.isfinite(m2) and math.isfinite(m3)):
        raise FittingError(
            f"moments overflow float range for mean={mean}, scv={scv}"
        )
    return fit_mixed_erlang(mean, m2, m3)


def h2_from_mean_scv(mean: float, scv: float) -> Hyperexponential:
    """Balanced-means two-moment hyperexponential (requires ``scv >= 1``)."""
    return Hyperexponential.balanced_means(mean, scv)
