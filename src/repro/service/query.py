"""Scenario queries and their answers.

A :class:`ScenarioQuery` is one capacity-planning question — "at these
loads and size statistics, which policy keeps E[T_S] under x?" — plus a
**deadline budget**: the wall-clock allowance the service may spend
answering it.  A :class:`ServiceAnswer` is what comes back: per-policy
values, the verdict against the threshold, and — centrally — the
**fidelity** level that actually produced the numbers, with the full
rung-attempt log, so a degraded answer can never masquerade as an exact
one.

Both are plain serializable dataclasses: queries load from JSON batch
files (``python -m repro serve --batch``), answers serialize into the
service manifest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from ..contracts.answers import FIDELITY_LEVELS
from ..workloads import WorkloadCase, case_by_name

__all__ = [
    "FIDELITY_LEVELS",
    "POLICIES",
    "ScenarioQuery",
    "ServiceAnswer",
]

#: Policies every query is answered for (the paper's three).
POLICIES = ("Dedicated", "CS-ID", "CS-CQ")


@dataclass(frozen=True)
class ScenarioQuery:
    """One scenario question with a deadline budget.

    Attributes
    ----------
    rho_s, rho_l:
        Per-host loads of the point being asked about.
    case:
        Workload-case fields (mean sizes / SCVs), as accepted by
        :class:`~repro.workloads.WorkloadCase`.
    threshold:
        Optional SLA bound x on ``E[T_S]``; the answer's verdict lists
        the policies that keep the mean short response under it.
    deadline:
        Wall-clock budget in seconds, started at admission.  ``None``
        uses the service default.
    label:
        Identifier used in spans, manifests, and fault-injection
        matching; auto-derived when empty.
    """

    rho_s: float
    rho_l: float
    case: "dict[str, Any]" = field(default_factory=dict)
    threshold: "Optional[float]" = None
    deadline: "Optional[float]" = None
    label: str = ""

    def workload(self) -> WorkloadCase:
        """The query's :class:`~repro.workloads.WorkloadCase`."""
        fields = dict(self.case)
        name = fields.pop("name", None)
        if name is not None and not fields:
            return case_by_name(str(name))
        return WorkloadCase(name=str(name or "custom"), **fields)

    def resolved_label(self) -> str:
        """The explicit label, or a canonical one derived from the point."""
        if self.label:
            return self.label
        name = self.case.get("name", "custom")
        return f"query {name} rho_s={self.rho_s:g} rho_l={self.rho_l:g}"

    @classmethod
    def from_dict(cls, data: "dict[str, Any]") -> "ScenarioQuery":
        """Build a query from a JSON object (one entry of a batch file)."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: SLF001
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown query field(s) {sorted(unknown)}; expected {sorted(known)}"
            )
        if "rho_s" not in data or "rho_l" not in data:
            raise ValueError("a query needs at least rho_s and rho_l")
        return cls(**data)

    def as_dict(self) -> "dict[str, Any]":
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return asdict(self)


@dataclass(frozen=True)
class ServiceAnswer:
    """What the service returns for one admitted query.

    ``status`` is ``"answered"`` or ``"rejected"``; a rejected answer
    carries the typed error payload instead of values.  ``fidelity`` is
    the :data:`FIDELITY_LEVELS` entry that actually produced ``values``;
    ``attempts`` is the per-rung log (name, accepted, error/timing) that
    justifies the tag.  ``bounds`` are the coarse certified bounds on
    ``E[T_S]`` per policy — also used to validate higher-fidelity rungs,
    so a corrupted exact solve degrades instead of lying.
    """

    label: str
    status: str
    fidelity: "Optional[str]" = None
    values: "dict[str, float] | None" = None
    bounds: "dict[str, Any] | None" = None
    verdict: "dict[str, Any] | None" = None
    attempts: "tuple[dict, ...]" = ()
    error: "dict | None" = None
    elapsed: float = 0.0
    deadline: "Optional[float]" = None
    retries: int = 0

    @property
    def answered(self) -> bool:
        """True when the query produced usable values."""
        return self.status == "answered"

    @property
    def degraded(self) -> bool:
        """True when the answer came from below the top fidelity level."""
        return self.answered and self.fidelity != FIDELITY_LEVELS[0]

    def as_dict(self) -> "dict[str, Any]":
        """JSON-ready form for the service manifest."""
        return {
            "label": self.label,
            "status": self.status,
            "fidelity": self.fidelity,
            "values": self.values,
            "bounds": self.bounds,
            "verdict": self.verdict,
            "attempts": list(self.attempts),
            "error": self.error,
            "elapsed": self.elapsed,
            "deadline": self.deadline,
            "retries": self.retries,
        }
