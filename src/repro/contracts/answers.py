"""Contracts on service answers: the fidelity tag must be earned.

The query service (:mod:`repro.service`) promises that every answer is
tagged with the fidelity level that *actually produced* its numbers and
that the deadline budget was honored.  These contracts make the promise
checkable — the service evaluates them before releasing an answer, and
the chaos harness enforces them over a whole batch, so a mis-tagged or
deadline-blown answer is a test failure, not a log line.

Subject kind ``"service-answer"``: a
:class:`~repro.service.ServiceAnswer` (or its ``as_dict()`` form — both
are accepted so manifests can be re-checked after the fact).
"""

from __future__ import annotations

import math
from typing import Any

from .registry import ContractResult, contract

__all__ = ["BOUNDS_SLACK", "DEADLINE_SLACK", "FIDELITY_LEVELS", "answer_fields"]

#: Slack added to the deadline check: the budget bounds *solver* work,
#: and the final bookkeeping (verdict, manifest row) costs a little more.
DEADLINE_SLACK = 0.25

#: Relative slack allowed around the coarse bounds, both when the service
#: validates an exact answer and when this contract re-checks it.  The
#: bounds hold exactly for the true system; an accepted exact answer may
#: still be off by the chain's busy-period moment matching (a few percent)
#: plus a trust bound of up to 1e-2.
BOUNDS_SLACK = 0.05

#: Answer sources, best first.  The service tags every answer with the
#: level that produced it:
#:
#: ``exact``  full QBD analysis with invariant contracts evaluated, or the
#:            replay of such an answer already memoized for the same point
#:            (bit-identical numbers, no solve)
#: ``bound``  coarse stability-region bounds only (closed form)
FIDELITY_LEVELS = ("exact", "bound")


def answer_fields(subject: Any) -> "dict[str, Any]":
    """Normalize a ServiceAnswer or its dict form into one field dict."""
    if isinstance(subject, dict):
        return subject
    if hasattr(subject, "as_dict"):
        return subject.as_dict()
    raise TypeError(
        f"service-answer contracts need a ServiceAnswer or dict, "
        f"got {type(subject).__name__}"
    )


@contract(
    "answer-fidelity-tag",
    "service-answer",
    "an answered query carries a valid fidelity tag matching the one "
    "rung its attempt log accepted",
)
def _fidelity_tag(subject) -> "list[ContractResult] | None":
    fields = answer_fields(subject)
    if fields.get("status") != "answered":
        return None
    fidelity = fields.get("fidelity")
    valid = fidelity in FIDELITY_LEVELS
    accepted = [
        a.get("rung")
        for a in fields.get("attempts", ())
        if a.get("outcome") == "accepted"
    ]
    consistent = valid and accepted == [fidelity]
    return [
        ContractResult(
            name="answer-fidelity-tag",
            passed=consistent,
            observed=float(len(accepted)),
            expected=1.0,
            tolerance=0.0,
            detail=(
                f"fidelity={fidelity!r}, accepted rungs={accepted}"
                if not consistent
                else ""
            ),
        )
    ]


@contract(
    "answer-deadline-honored",
    "service-answer",
    "elapsed wall time stays within the deadline budget (plus slack)",
)
def _deadline_honored(subject) -> "ContractResult | None":
    fields = answer_fields(subject)
    deadline = fields.get("deadline")
    if deadline is None:
        return None
    elapsed = float(fields.get("elapsed") or 0.0)
    limit = float(deadline) + DEADLINE_SLACK
    return ContractResult(
        name="answer-deadline-honored",
        passed=elapsed <= limit,
        observed=elapsed,
        expected=float(deadline),
        tolerance=DEADLINE_SLACK,
        detail="" if elapsed <= limit else "query outlived its deadline budget",
    )


@contract(
    "answer-within-bounds",
    "service-answer",
    "every finite reported value lies inside the answer's own certified "
    "coarse bounds",
)
def _within_bounds(subject) -> "list[ContractResult] | None":
    fields = answer_fields(subject)
    if fields.get("status") != "answered":
        return None
    values = fields.get("values") or {}
    bounds = fields.get("bounds") or {}
    results = []
    for policy, value in values.items():
        b = bounds.get(policy)
        if b is None or value is None or not math.isfinite(value):
            continue
        # The contract re-checks what the service's validation already
        # guaranteed, with the same slack.
        lower = float(b["lower"]) * (1.0 - BOUNDS_SLACK) if b["stable"] else float("inf")
        upper = float(b["upper"]) * (1.0 + BOUNDS_SLACK) if b["stable"] else float("-inf")
        ok = bool(b["stable"]) and lower <= value and (
            not math.isfinite(upper) or value <= upper
        )
        results.append(
            ContractResult(
                name="answer-within-bounds",
                passed=ok,
                observed=float(value),
                expected=float(b["upper"]) if b["stable"] else float("nan"),
                tolerance=BOUNDS_SLACK,
                detail="" if ok else f"{policy} value escapes its certified bounds",
            )
        )
    return results or None
