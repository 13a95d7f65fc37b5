"""Solver hardening: error taxonomy, input guards, fallback ladders, reports.

The paper's headline figures live exactly where matrix-analytic machinery
is most fragile: as ``rho_s -> 2 - rho_l`` the QBD spectral radius
approaches 1 and ``(I - R)^{-1}`` becomes ill-conditioned.  This package
makes every failure along that path *typed and observable*:

``errors``
    A structured exception taxonomy rooted at :class:`ReproError`, each
    exception carrying machine-readable context (residual, iterations,
    condition number, spectral radius).
``guards``
    Reusable finite/nonnegativity/conditioning checks applied to every
    matrix entering the QBD solver and every scalar entering
    :class:`~repro.core.params.SystemParameters`.
``retry``
    A declarative fallback ladder: ordered solver rungs tried in turn,
    every attempt recorded, a :class:`ConvergenceError` with the full
    attempt log when the ladder is exhausted.  Plus
    :func:`retry_with_backoff` for *transient* faults (crashed workers,
    chaos injections): exponential backoff with decorrelated jitter, an
    attempt cap, and a :class:`RetryExhaustedError` carrying the log.
``circuit``
    A keyed :class:`CircuitBreaker` (closed / open / half-open) so a
    persistently failing parameter region stops consuming solver budget;
    the query service trips it per region bucket.
``report``
    :class:`SolverDiagnostics` — what actually happened inside a solve
    (method, rungs tried, residuals, ``sp(R)``, ``cond(I - R)``, wall
    time), attached to every :class:`~repro.markov.qbd.QbdSolution`.
``atomic_write``
    Crash-safe tmp-file+``os.replace`` writers shared by every
    ``results/`` artifact producer (journals, manifests, oracle reports,
    telemetry traces).
"""

from .atomic_write import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_jsonl,
    atomic_write_text,
    fsync_directory,
)
from .circuit import CircuitBreaker
from .errors import (
    CircuitOpenError,
    ContractViolation,
    ContractViolationWarning,
    ConvergenceError,
    CorruptJournalWarning,
    DeadlineExceededError,
    IllConditionedError,
    NearBoundaryWarning,
    NumericalError,
    ReproError,
    RetryExhaustedError,
    SerializationError,
    ServiceError,
    ServiceOverloadError,
    StoreCorruptionError,
    UnstableSystemError,
    ValidationError,
)
from .guards import (
    condition_number,
    conditioning_outcome,
    ensure_finite_array,
    ensure_finite_scalar,
    ensure_no_material_negatives,
    ensure_nonnegative_scalar,
    ensure_rate_block,
    spectral_radius,
)
from .report import SolverDiagnostics
from .trust import (
    K_TAIL,
    TRUST_LEVELS,
    TRUSTED_MAX,
    UNTRUSTED_MIN,
    compose_bound,
    condest_1,
    newton_polish_r,
    refined_solve,
    scale_tolerance,
    trust_verdict,
    trust_verdicts,
)
from .retry import (
    BackoffPolicy,
    Rung,
    RungAttempt,
    retry_with_backoff,
    run_fallback_ladder,
)

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "K_TAIL",
    "TRUST_LEVELS",
    "TRUSTED_MAX",
    "UNTRUSTED_MIN",
    "compose_bound",
    "condest_1",
    "newton_polish_r",
    "refined_solve",
    "scale_tolerance",
    "trust_verdict",
    "trust_verdicts",
    "CircuitOpenError",
    "ContractViolation",
    "ContractViolationWarning",
    "ConvergenceError",
    "CorruptJournalWarning",
    "DeadlineExceededError",
    "IllConditionedError",
    "NearBoundaryWarning",
    "NumericalError",
    "ReproError",
    "RetryExhaustedError",
    "Rung",
    "RungAttempt",
    "SerializationError",
    "ServiceError",
    "ServiceOverloadError",
    "SolverDiagnostics",
    "StoreCorruptionError",
    "UnstableSystemError",
    "ValidationError",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_jsonl",
    "atomic_write_text",
    "conditioning_outcome",
    "condition_number",
    "ensure_finite_array",
    "ensure_finite_scalar",
    "ensure_no_material_negatives",
    "ensure_nonnegative_scalar",
    "ensure_rate_block",
    "fsync_directory",
    "retry_with_backoff",
    "run_fallback_ladder",
    "spectral_radius",
]
