"""Online statistics for simulation output analysis.

Simulation accuracy is the paper's Section 4 concern ("simulation accuracy
decreases as the relative traffic intensities approach saturation"); we
quantify it with independent replications and Student-t confidence
intervals, plus Welford accumulators that are numerically stable over long
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Welford",
    "ConfidenceInterval",
    "batch_means_interval",
    "replication_interval",
]


class Welford:
    """Numerically stable streaming mean/variance accumulator."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Incorporate one observation."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def add_many(self, values: Sequence[float]) -> None:
        """Incorporate a batch of observations."""
        for v in values:
            self.add(float(v))

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._mean if self.count else float("nan")

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN for < 2 observations)."""
        if self.count < 2:
            return float("nan")
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a symmetric confidence half-width."""

    mean: float
    half_width: float
    level: float = 0.95
    n: int = 0

    @property
    def lower(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    @property
    def relative_half_width(self) -> float:
        """Half-width relative to ``|mean|``; ``inf`` for (near-)zero means.

        A zero-mean estimate supports no relative-precision claim at all,
        so the interval reports itself as infinitely wide — a finite
        threshold comparison (e.g. the consistency oracle's escalation
        rule) then treats it as undecided instead of raising
        ``ZeroDivisionError`` or sign-flipping on negative means.  NaN
        means stay NaN (no data is different from zero-mean data).
        """
        if math.isnan(self.mean):
            return float("nan")
        magnitude = abs(self.mean)
        if magnitude < 1e-300:  # zero and denormals: denominator unusable
            return float("inf")
        return self.half_width / magnitude


def replication_interval(
    values: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval over independent replication means."""
    n = len(values)
    if n < 2:
        mean = values[0] if n else float("nan")
        return ConfidenceInterval(mean=mean, half_width=float("inf"), level=level, n=n)
    # Imported here, not at module scope: scipy.stats costs most of the
    # package's import time and only this quantile needs it.
    from scipy import stats

    acc = Welford()
    acc.add_many(values)
    t = float(stats.t.ppf(0.5 + level / 2.0, df=n - 1))
    return ConfidenceInterval(
        mean=acc.mean, half_width=t * acc.std / math.sqrt(n), level=level, n=n
    )


def batch_means_interval(
    observations: Sequence[float], n_batches: int = 20, level: float = 0.95
) -> ConfidenceInterval:
    """Batch-means confidence interval from one long (warmed-up) run.

    Splits the per-job observations into ``n_batches`` contiguous batches;
    batch means are approximately independent for batches much longer than
    the autocorrelation time, giving a t-interval from a single run — the
    classic single-run alternative to independent replications.
    """
    if n_batches < 2:
        raise ValueError(f"need at least 2 batches, got {n_batches}")
    n = len(observations)
    if n < 2 * n_batches:
        raise ValueError(
            f"{n} observations are too few for {n_batches} batches"
        )
    batch_size = n // n_batches
    means = [
        sum(observations[i * batch_size : (i + 1) * batch_size]) / batch_size
        for i in range(n_batches)
    ]
    return replication_interval(means, level)
