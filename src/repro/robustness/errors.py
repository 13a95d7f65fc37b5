"""Structured exception taxonomy for the analytic stack.

Every failure a solver can produce is a :class:`ReproError` subclass that
carries *machine-readable context* — the final residual, the iteration
count, the condition number, the spectral radius — so that callers
(figure sweeps, the CLI, tests) can distinguish "the model is unstable"
from "the solver gave up" from "the arithmetic is untrustworthy" without
parsing message strings.

Hierarchy::

    ReproError(Exception)
    ├── ValidationError(ReproError, ValueError)       bad inputs (NaN/inf/negative)
    ├── UnstableSystemError(ReproError, ValueError)   outside the stability region
    ├── NumericalError(ReproError, ArithmeticError)   a solve went numerically wrong
    │   ├── ConvergenceError                          an iteration failed to converge
    │   ├── IllConditionedError                       a matrix is too ill-conditioned
    │   └── ContractViolation                         a result broke a declared invariant
    ├── SerializationError(ReproError, TypeError)     a value cannot round-trip the store codec
    ├── StoreCorruptionError(ReproError)              a persistent store entry failed verification
    └── ServiceError(ReproError)                      the query service could not serve at full fidelity
        ├── ServiceOverloadError                      admission queue full; carries retry_after
        ├── DeadlineExceededError                     a deadline budget ran out
        ├── CircuitOpenError                          a circuit breaker is open for this region
        └── RetryExhaustedError                       retry_with_backoff gave up; carries attempt log

    NearBoundaryWarning(UserWarning)                  degraded accuracy near rho_s -> 2 - rho_l
    ContractViolationWarning(UserWarning)             a sweep point broke an invariant contract
    CorruptJournalWarning(UserWarning)                a checkpoint journal had torn/corrupt lines

The dual bases (``ValueError`` / ``ArithmeticError``) keep the taxonomy
backward compatible: code written against the pre-hardening exceptions
keeps working, while new code can catch the whole family via
``except ReproError``.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ReproError",
    "ValidationError",
    "UnstableSystemError",
    "NumericalError",
    "ConvergenceError",
    "IllConditionedError",
    "ContractViolation",
    "ServiceError",
    "ServiceOverloadError",
    "DeadlineExceededError",
    "CircuitOpenError",
    "RetryExhaustedError",
    "SerializationError",
    "StoreCorruptionError",
    "NearBoundaryWarning",
    "ContractViolationWarning",
    "CorruptJournalWarning",
]


def _format_context(context: dict[str, Any]) -> str:
    parts = []
    for key, value in context.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value!r}")
    return ", ".join(parts)


class ReproError(Exception):
    """Base class of every typed failure raised by the analytic stack.

    Parameters
    ----------
    message:
        Human-readable description of the failure.
    **context:
        Arbitrary machine-readable fields (``residual``, ``iterations``,
        ``condition_number``, ``spectral_radius``, ...).  ``None`` values
        are dropped; everything else is stored on :attr:`context` and
        appended to the rendered message.
    """

    def __init__(self, message: str, **context: Any):
        self.message = message
        self.context = {k: v for k, v in context.items() if v is not None}
        rendered = message
        if self.context:
            rendered = f"{message} [{_format_context(self.context)}]"
        super().__init__(rendered)

    # Convenience accessors for the canonical context fields; return None
    # when the raising site did not populate them.
    @property
    def residual(self) -> Any:
        """Final residual of the failed solve, if recorded."""
        return self.context.get("residual")

    @property
    def iterations(self) -> Any:
        """Iteration count at failure, if recorded."""
        return self.context.get("iterations")

    @property
    def condition_number(self) -> Any:
        """Condition number that triggered the failure, if recorded."""
        return self.context.get("condition_number")

    @property
    def spectral_radius(self) -> Any:
        """Spectral radius (e.g. ``sp(R)``) at failure, if recorded."""
        return self.context.get("spectral_radius")


class ValidationError(ReproError, ValueError):
    """An input failed a guard: NaN/inf entries, negative rates, bad shape."""


class UnstableSystemError(ReproError, ValueError):
    """Raised when a policy is asked to analyze a load outside its stability region.

    Re-parented under :class:`ReproError` (historically a plain
    ``ValueError`` defined in :mod:`repro.core.params`, which still
    re-exports it).
    """


class NumericalError(ReproError, ArithmeticError):
    """A numerical computation produced an untrustworthy or degenerate result."""


class ConvergenceError(NumericalError):
    """An iterative solve (R-matrix, stationary distribution, fixed point)
    failed to reach its tolerance — including after a full fallback ladder."""


class IllConditionedError(NumericalError):
    """A linear-algebra step involves a matrix too ill-conditioned to trust
    (typically ``I - R`` as ``sp(R) -> 1`` near the stability boundary)."""


class ContractViolation(NumericalError):
    """A *converged* result broke a declared invariant contract.

    This is the error for silently-wrong answers: the solver reported
    success, but the numbers violate something that must hold exactly or
    within a stated tolerance (Little's law, normalization, flow balance,
    policy dominance, ...).  The canonical context fields are
    ``contract`` (the registry name), ``observed``, ``expected`` and
    ``tolerance``; use the convenience properties to read them.
    """

    @property
    def contract(self) -> Any:
        """Registry name of the violated contract."""
        return self.context.get("contract")

    @property
    def observed(self) -> Any:
        """Observed value that broke the contract."""
        return self.context.get("observed")

    @property
    def expected(self) -> Any:
        """Expected value (or bound) the contract demanded."""
        return self.context.get("expected")

    @property
    def tolerance(self) -> Any:
        """Tolerance the comparison was allowed."""
        return self.context.get("tolerance")


class SerializationError(ReproError, TypeError):
    """A value cannot be encoded for (or decoded from) the persistent store.

    Raised by the :mod:`repro.perf.codec` when asked to serialize a type
    outside its closed registry, or to decode a tag it does not know.  On
    the write path this means the value simply is not persisted (the
    in-memory cache still works); on the read path it is wrapped in a
    :class:`StoreCorruptionError` — an undecodable payload that passed its
    checksum is schema drift, which the store treats as corruption.
    """


class StoreCorruptionError(ReproError):
    """A persistent store entry failed integrity verification.

    Raised on *any* mismatch between an on-disk entry and its
    self-describing header: bad magic, unknown schema version, namespace
    or key-digest mismatch, payload length or sha256 checksum mismatch,
    an undecodable payload, or a deserialized QBD solution that no longer
    passes its invariant contracts.  The raising site has already
    quarantined the entry; the cache layer catches this error and falls
    through to recompute-and-rewrite, so corruption can cost time but
    never change a figure value.

    Canonical context fields: ``path`` (the offending entry), ``reason``
    (which check failed), ``expected`` / ``observed`` (the mismatched
    digests or counts, where meaningful).
    """

    @property
    def path(self) -> Any:
        """Filesystem path of the corrupt entry, if recorded."""
        return self.context.get("path")

    @property
    def reason(self) -> Any:
        """Which verification step failed, if recorded."""
        return self.context.get("reason")


class ServiceError(ReproError):
    """The query service could not serve a request at full fidelity.

    Base class of the graceful-degradation failure modes: shedding under
    overload, deadline exhaustion, an open circuit breaker, a retry loop
    that gave up.  These are *service-level* conditions — the underlying
    numerics may be perfectly healthy — so they hang off :class:`ReproError`
    directly rather than :class:`NumericalError`.
    """


class ServiceOverloadError(ServiceError):
    """The admission queue is full; the query was shed, not lost.

    Carries a ``retry_after`` hint (seconds): the service's estimate of
    when capacity will free up, computed from the current backlog and the
    observed per-query service time.  Clients honoring the hint implement
    cooperative backpressure instead of a thundering-herd retry.
    """

    @property
    def retry_after(self) -> Any:
        """Suggested client back-off before resubmitting, in seconds."""
        return self.context.get("retry_after")


class DeadlineExceededError(ServiceError):
    """A deadline budget ran out before the work could complete.

    Canonical context fields: ``budget`` (the total allowance, seconds),
    ``elapsed`` (how much was spent) and ``stage`` (what was being
    attempted when the budget expired).
    """

    @property
    def budget(self) -> Any:
        """Total deadline budget in seconds, if recorded."""
        return self.context.get("budget")

    @property
    def elapsed(self) -> Any:
        """Seconds actually spent when the deadline fired, if recorded."""
        return self.context.get("elapsed")


class CircuitOpenError(ServiceError):
    """A circuit breaker is open: the guarded operation is being skipped.

    Canonical context fields: ``key`` (the breaker partition, e.g. a
    parameter-region bucket), ``failures`` (consecutive failures that
    tripped it) and ``retry_after`` (seconds until the half-open probe).
    """

    @property
    def retry_after(self) -> Any:
        """Seconds until the breaker admits a half-open probe, if recorded."""
        return self.context.get("retry_after")


class RetryExhaustedError(ServiceError):
    """A :func:`~repro.robustness.retry_with_backoff` loop gave up.

    Carries the full attempt log (one entry per try: error type/message
    and the backoff slept before the next try) so callers can audit what
    was tried without re-running the failure.  ``__cause__`` is the last
    underlying exception.
    """

    @property
    def attempts(self) -> Any:
        """Tuple of per-attempt records ``{attempt, error, delay}``."""
        return self.context.get("attempts")


class NearBoundaryWarning(UserWarning):
    """The system is close enough to the stability boundary that results are
    degraded: conditioning checks flag reduced accuracy, or a sweep point
    failed and is plotted as NaN.  Carries no context dict — use the
    warning message; typed context lives on the errors."""


class ContractViolationWarning(UserWarning):
    """A sweep point's result broke an invariant contract.

    Sweeps must complete end-to-end, so in-sweep contract evaluation warns
    instead of raising; the orchestration layer turns this warning into
    the ``suspect`` point classification (alongside ok/degraded/failed/
    timeout) so the run manifest records exactly which points are
    questionable.  Typed detail lives on the corresponding
    :class:`ContractViolation` where one was raised and caught.
    """


class CorruptJournalWarning(UserWarning):
    """A checkpoint journal contained torn or corrupt lines on load.

    A mid-write crash (power loss, SIGKILL during an append) can leave a
    truncated final JSONL line; skipping it and resuming from
    the intact records is the correct recovery, but it must not happen
    silently — the warning (and the ``checkpoint.torn_lines`` telemetry
    counter) record that some journaled work will be recomputed.
    """
