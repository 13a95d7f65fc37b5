"""Finite continuous-time Markov chains (dense or sparse).

Used for the truncated-chain ablation (the paper argues truncation of the
2D-infinite CS-CQ chain is "neither sufficiently accurate nor robust" — we
reproduce that claim quantitatively) and for brute-force validation of the
QBD solver on finite state spaces.  Large truncated chains are held in
scipy sparse form; dense numpy arrays work as before for small chains.
``scipy.sparse`` is imported inside the functions that use it, so
importing this module (and every analytic path) stays free of it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..robustness import (
    ConvergenceError,
    NumericalError,
    ValidationError,
    ensure_finite_array,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only, see module docstring
    from scipy import sparse

__all__ = ["Ctmc", "build_generator"]


def build_generator(rates: np.ndarray) -> np.ndarray:
    """Turn a nonnegative off-diagonal rate matrix into a proper generator.

    The diagonal is set to minus the row sums (any preexisting diagonal is
    ignored), making every row sum to zero.
    """
    rates = ensure_finite_array(rates, "rate matrix")
    if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
        raise ValidationError(f"rate matrix must be square, got shape {rates.shape}")
    if np.any((rates - np.diag(np.diag(rates))) < 0.0):
        raise ValidationError("off-diagonal rates must be nonnegative")
    generator = rates.copy()
    np.fill_diagonal(generator, 0.0)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    return generator


def _build_generator_sparse(rates: "sparse.spmatrix") -> "sparse.csr_matrix":
    """Sparse counterpart of :func:`build_generator`."""
    from scipy import sparse

    rates = rates.tocsr().astype(float)
    if rates.shape[0] != rates.shape[1]:
        raise ValidationError(f"rate matrix must be square, got shape {rates.shape}")
    ensure_finite_array(rates.data, "rate matrix data")
    rates = rates - sparse.diags(rates.diagonal())
    if rates.nnz and rates.data.min() < 0.0:
        raise ValidationError("off-diagonal rates must be nonnegative")
    row_sums = np.asarray(rates.sum(axis=1)).ravel()
    return (rates - sparse.diags(row_sums)).tocsr()


class Ctmc:
    """A finite CTMC defined by its generator matrix.

    Parameters
    ----------
    generator:
        Square matrix with zero row sums, dense or scipy-sparse; or a
        nonnegative rate matrix whose diagonal will be overwritten (set
        ``is_rate_matrix=True``).
    """

    def __init__(self, generator, is_rate_matrix: bool = False):
        from scipy import sparse

        self._sparse = sparse.issparse(generator)
        if self._sparse:
            generator = (
                _build_generator_sparse(generator)
                if is_rate_matrix
                else generator.tocsr().astype(float)
            )
            row_sums = np.asarray(generator.sum(axis=1)).ravel()
            scale = 1.0 + (np.abs(generator.data).max() if generator.nnz else 0.0)
        else:
            generator = ensure_finite_array(generator, "generator")
            if is_rate_matrix:
                generator = build_generator(generator)
            row_sums = generator.sum(axis=1)
            scale = 1.0 + np.abs(generator).max()
        if np.any(np.abs(row_sums) > 1e-8 * scale):
            raise ValidationError(
                f"generator rows must sum to zero (max abs residual "
                f"{np.abs(row_sums).max():.3g}); pass is_rate_matrix=True to "
                "have diagonals filled in"
            )
        self.generator = generator
        self.n_states = generator.shape[0]

    def stationary_distribution(self) -> np.ndarray:
        """Solve ``pi Q = 0``, ``pi 1 = 1``.

        Small dense chains use least squares on the stacked system; large
        or sparse chains use a sparse direct solve with one (redundant)
        balance equation replaced by the normalization.  Raises if no
        normalizable solution is found (residual check).
        """
        q = self.generator
        n = self.n_states
        if self._sparse or n > 500:
            pi = self._stationary_sparse()
            residual = np.abs(q.T @ pi if self._sparse else pi @ q).max()
            scale = max(1.0, np.abs(q.data).max() if self._sparse else np.abs(q).max())
        else:
            # Stack the normalization constraint onto the transposed balance
            # equations; lstsq handles the rank-deficiency of Q^T gracefully.
            a = np.vstack([q.T, np.ones((1, n))])
            b = np.zeros(n + 1)
            b[-1] = 1.0
            pi, *_ = np.linalg.lstsq(a, b, rcond=None)
            residual = np.abs(pi @ q).max()
            scale = max(1.0, np.abs(q).max())
        if residual > 1e-7 * scale:
            raise ConvergenceError(
                "stationary solve failed to balance",
                residual=float(residual),
                tolerance=float(1e-7 * scale),
            )
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0.0:
            raise NumericalError(
                "stationary solve produced a zero vector", total_mass=float(total)
            )
        return pi / total

    def _stationary_sparse(self) -> np.ndarray:
        from scipy import sparse
        from scipy.sparse.linalg import spsolve

        n = self.n_states
        a = (self.generator if self._sparse else sparse.csr_matrix(self.generator))
        a = a.T.tolil()
        a[-1, :] = 1.0  # replace one (redundant) balance row by normalization
        b = np.zeros(n)
        b[-1] = 1.0
        return spsolve(a.tocsc(), b)

    def expected_value(self, values: Sequence[float]) -> float:
        """Return ``sum_i pi_i values_i`` under the stationary distribution."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_states,):
            raise ValidationError(
                f"values must have shape ({self.n_states},), got {values.shape}"
            )
        return float(self.stationary_distribution() @ values)
