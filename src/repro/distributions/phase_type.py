"""General (continuous) phase-type distributions.

A phase-type (PH) distribution is the absorption time of a finite CTMC with
initial distribution ``alpha`` over transient phases and sub-generator ``T``.
The paper's machinery represents general service times and busy periods by
small PH (Coxian) distributions, so this class is the common denominator of
the analytic pipeline: moments, LST and sampling all have exact matrix
formulas.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np

from .base import Distribution

__all__ = ["PhaseType"]


class PhaseType(Distribution):
    """Phase-type distribution ``PH(alpha, T)``.

    Parameters
    ----------
    alpha:
        Initial probability vector over the ``n`` transient phases.  A mass
        ``1 - sum(alpha)`` at absorption (i.e. an atom at zero) is allowed
        but unusual for service times.
    T:
        ``n x n`` sub-generator: negative diagonal, nonnegative off-diagonal,
        row sums ``<= 0`` with the deficit being the absorption (exit) rate.
    """

    def __init__(self, alpha, T):
        alpha = np.asarray(alpha, dtype=float).reshape(-1)
        T = np.asarray(T, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError(f"T must be square, got shape {T.shape}")
        if alpha.shape[0] != T.shape[0]:
            raise ValueError(
                f"alpha has {alpha.shape[0]} entries but T is {T.shape[0]}x{T.shape[0]}"
            )
        if (alpha < -1e-12).any() or alpha.sum() > 1.0 + 1e-9:
            raise ValueError(f"alpha must be a (sub)probability vector, got {alpha}")
        diagonal = T.diagonal()
        if (diagonal > 0.0).any():
            raise ValueError("diagonal of T must be nonpositive")
        if (T - np.diag(diagonal) < -1e-12).any():
            raise ValueError("off-diagonal entries of T must be nonnegative")
        exit_rates = -T.sum(axis=1)
        if (exit_rates < -1e-9).any():
            raise ValueError("row sums of T must be nonpositive (valid sub-generator)")
        self.alpha = np.maximum(alpha, 0.0)
        self.T = T
        self.exit_rates = np.maximum(exit_rates, 0.0)
        self._n = T.shape[0]

    @cached_property
    def _U(self) -> np.ndarray:
        """``(-T)^{-1}``, the matrix of expected sojourn times (on first use)."""
        return np.linalg.inv(-self.T)

    # ------------------------------------------------------------------
    @property
    def n_phases(self) -> int:
        """Return the number of transient phases."""
        return self._n

    def moment(self, k: int) -> float:
        self._check_moment_order(k)
        # E[X^k] = k! * alpha * (-T)^{-k} * 1
        vec = np.ones(self._n)
        for _ in range(k):
            vec = self._U @ vec
        return float(math.factorial(k) * (self.alpha @ vec))

    def laplace(self, s: complex) -> complex:
        ident = np.eye(self._n)
        resolvent = np.linalg.solve(s * ident - self.T, self.exit_rates)
        atom_at_zero = 1.0 - self.alpha.sum()
        return complex(self.alpha @ resolvent) + atom_at_zero

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        if size is None:
            return self._sample_one(rng)
        return np.array([self._sample_one(rng) for _ in range(size)])

    def _sample_one(self, rng: np.random.Generator) -> float:
        total = 0.0
        # Choose the starting phase (or immediate absorption).
        u = rng.random()
        cumulative = np.cumsum(self.alpha)
        if u >= (cumulative[-1] if self._n else 0.0):
            return 0.0
        phase = int(np.searchsorted(cumulative, u, side="right"))
        while True:
            rate = -self.T[phase, phase]
            total += rng.exponential(1.0 / rate)
            # Pick the next phase or absorb.
            probs = self.T[phase].copy()
            probs[phase] = 0.0
            exit_prob = self.exit_rates[phase] / rate
            u = rng.random()
            if u < exit_prob:
                return total
            u = (u - exit_prob) * rate
            cumulative_rates = np.cumsum(probs)
            phase = int(np.searchsorted(cumulative_rates, u, side="right"))
            phase = min(phase, self._n - 1)

    def as_phase_type(self) -> "PhaseType":
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhaseType(n_phases={self._n}, mean={self.mean:.6g}, scv={self.scv:.6g})"
