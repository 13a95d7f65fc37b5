"""Solver diagnostics: what actually happened inside a matrix-analytic solve.

Attached to every :class:`~repro.markov.qbd.QbdSolution` and surfaced on
the CS-CQ / CS-ID analysis objects and the CLI's ``--diagnostics`` flag,
so that "the figure looks right" can be backed by "the solve converged on
the first rung with residual 3e-15 and cond(I - R) = 2e3".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .retry import RungAttempt

__all__ = ["SolverDiagnostics"]


@dataclass(frozen=True)
class SolverDiagnostics:
    """Machine-readable record of one QBD solve.

    Attributes
    ----------
    method:
        The accepted solver rung (``"logarithmic-reduction"``,
        ``"successive-substitution"``, ...).
    rungs:
        Every fallback-ladder attempt, in order, including the accepted one.
    residual:
        Defining residual of the accepted result (quadratic residual of R
        for QBD solves; boundary balance residual for the linear stage).
    spectral_radius:
        ``sp(R)`` — the chain's effective utilization; response times
        diverge as it approaches 1.
    condition_i_minus_r:
        Exact 1-norm ``cond(I - R)``, from the ``(I - R)^{-1}`` the solve
        holds: the value the conditioning gate and the error bound both
        read.  Large values mean the geometric-tail sums carry reduced
        accuracy.
    boundary_residual:
        Balance residual of the finite boundary linear solve, when one ran.
    iterations:
        True iteration count of the accepted solver rung (None when the
        rung does not iterate or the solve was resolved from cache).
    wall_time:
        Seconds spent in the solve (R-matrix ladder + boundary stage).
    cache_hit:
        True when the result was returned from an active sweep cache
        (:mod:`repro.perf`) instead of being recomputed.  Cached results
        are bit-identical to recomputed ones; the flag exists so sweeps
        remain observable under caching.
    degraded:
        True when the result came from something other than the exact
        analysis.  No solver sets it any more; the field stays because it
        is part of the store and journal payload format.
    notes:
        Free-form annotations.
    condition_estimate:
        Exact 1-norm condition number of the worst linear stage behind
        this result (boundary system vs ``I - R``), from
        :func:`~repro.robustness.trust.condest_1`.
    error_bound:
        Composed first-order forward error bound
        (:func:`~repro.robustness.trust.compose_bound`); the input to the
        trust verdict.
    trust:
        ``"trusted"`` / ``"suspect"`` / ``"untrusted"`` per
        :func:`~repro.robustness.trust.trust_verdict`; None for solves
        predating the trust layer (deserialized old payloads).
    escalated:
        True when the precision-escalation rung (Newton polish of R +
        compensated boundary re-solve) ran and its result was accepted.
    error_bound_before_escalation:
        The bound that triggered escalation, kept for the audit trail
        (None when escalation never ran or was rejected).
    """

    method: str
    rungs: tuple[RungAttempt, ...] = ()
    residual: Optional[float] = None
    spectral_radius: Optional[float] = None
    condition_i_minus_r: Optional[float] = None
    boundary_residual: Optional[float] = None
    iterations: Optional[int] = None
    wall_time: Optional[float] = None
    cache_hit: bool = False
    degraded: bool = False
    notes: tuple[str, ...] = field(default_factory=tuple)
    condition_estimate: Optional[float] = None
    error_bound: Optional[float] = None
    trust: Optional[str] = None
    escalated: bool = False
    error_bound_before_escalation: Optional[float] = None

    @property
    def rung_iterations(self) -> dict:
        """Per-rung iteration counts, in ladder order.

        ``iterations`` alone only reports the *winning* rung's count; when
        the ladder fell through (logarithmic reduction exhausted its budget,
        substitution then converged) the work spent on rejected rungs was
        invisible in machine-readable form.  Keys are rung names (unique
        within a ladder); values may be None for non-iterating rungs.
        """
        return {attempt.name: attempt.iterations for attempt in self.rungs}

    def as_dict(self) -> dict:
        """Flat dict form (rungs rendered as strings) for logs and tables."""
        return {
            "method": self.method,
            "rungs": [attempt.describe() for attempt in self.rungs],
            "rung_iterations": self.rung_iterations,
            "residual": self.residual,
            "spectral_radius": self.spectral_radius,
            "condition_i_minus_r": self.condition_i_minus_r,
            "boundary_residual": self.boundary_residual,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
            "notes": list(self.notes),
            "condition_estimate": self.condition_estimate,
            "error_bound": self.error_bound,
            "trust": self.trust,
            "escalated": self.escalated,
            "error_bound_before_escalation": self.error_bound_before_escalation,
        }

    def summary(self, indent: str = "") -> str:
        """Multi-line human-readable report (used by ``--diagnostics``)."""

        def fmt(value: Optional[float]) -> str:
            return "n/a" if value is None else f"{value:.3g}"

        lines = [
            f"{indent}method: {self.method}"
            + (" (degraded accuracy)" if self.degraded else "")
            + (" (cache hit)" if self.cache_hit else ""),
            f"{indent}residual: {fmt(self.residual)}   "
            f"sp(R): {fmt(self.spectral_radius)}   "
            f"cond(I-R): {fmt(self.condition_i_minus_r)}",
            f"{indent}boundary residual: {fmt(self.boundary_residual)}   "
            f"iterations: {self.iterations if self.iterations is not None else 'n/a'}   "
            f"wall time: {fmt(self.wall_time)}s",
            f"{indent}trust: {self.trust or 'n/a'}   "
            f"error bound: {fmt(self.error_bound)}   "
            f"cond estimate: {fmt(self.condition_estimate)}"
            + (" (escalated)" if self.escalated else ""),
        ]
        for attempt in self.rungs:
            lines.append(f"{indent}  rung {attempt.describe()}")
        for note in self.notes:
            lines.append(f"{indent}  note: {note}")
        return "\n".join(lines)
