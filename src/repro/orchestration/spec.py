"""Sweep-point specifications and the task registry.

A sweep is a list of :class:`SweepPoint` objects.  Each point names a
*task* (a registered callable or a ``"module:function"`` dotted path) and
carries JSON-serializable keyword arguments; the pair is content-hashed
into a stable :attr:`SweepPoint.key` that the checkpoint journal uses to
recognize already-completed points across interrupted runs.  Keeping the
spec declarative (a name plus plain data, never a closure) is what lets a
point cross the process boundary to a worker and survive on disk.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "SCHEMA_VERSION",
    "SweepPoint",
    "canonical_spec_json",
    "point_key",
    "register_task",
    "resolve_task",
]

#: Version tag of the solver/result schema, folded into every point key.
#: Bump it whenever a solver change makes previously checkpointed results
#: non-comparable (different numerics, changed result fields, ...): every
#: journal entry written under the old tag then stops matching, so a
#: ``--resume`` recomputes instead of silently mixing old and new results.
SCHEMA_VERSION = 2

_TASKS: dict[str, Callable[..., Any]] = {}


def register_task(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a callable under ``name`` for sweep points.

    Registered names are resolvable in worker subprocesses: with the
    default fork start method the registry is inherited; under spawn the
    built-in tasks re-register when :mod:`repro.orchestration.tasks` is
    imported by :func:`resolve_task`.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        _TASKS[name] = fn
        return fn

    return decorate


def resolve_task(name: str) -> Callable[..., Any]:
    """Look up a task by registered name or ``"module:function"`` path."""
    if name in _TASKS:
        return _TASKS[name]
    if ":" in name:
        module_name, _, attr = name.partition(":")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise KeyError(f"{name!r} does not resolve to a callable")
        return fn
    # The built-in tasks register themselves on import; load them lazily so
    # importing the orchestration package never drags in the experiment
    # stack (which itself builds SweepPoints).
    from . import tasks  # noqa: F401

    if name in _TASKS:
        return _TASKS[name]
    raise KeyError(
        f"unknown task {name!r}; registered: {sorted(_TASKS)} "
        "(or use a 'module:function' path)"
    )


def canonical_spec_json(task: str, kwargs: dict) -> str:
    """Canonical JSON of a point spec (sorted keys, no whitespace).

    Includes :data:`SCHEMA_VERSION`, so checkpoints written before a
    schema/solver bump stop matching and are recomputed on resume.
    """
    return json.dumps(
        {"schema": SCHEMA_VERSION, "task": task, "kwargs": kwargs},
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )


def point_key(task: str, kwargs: dict) -> str:
    """Stable content hash of a point spec, the journal/checkpoint key."""
    digest = hashlib.sha256(canonical_spec_json(task, kwargs).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work: a task name plus serializable kwargs.

    ``label`` is purely cosmetic (progress lines, manifests, fault-
    injection matching); identity is the content hash of ``(task, kwargs)``,
    hashed once per :data:`SCHEMA_VERSION` and kept, so ``kwargs`` must not
    be mutated once the point exists.
    """

    task: str
    kwargs: dict = field(default_factory=dict)
    label: str = ""

    @property
    def key(self) -> str:
        """Content hash identifying this point in the checkpoint journal."""
        cached = self.__dict__.get("_key")
        if cached is None or cached[0] != SCHEMA_VERSION:
            cached = (SCHEMA_VERSION, point_key(self.task, self.kwargs))
            self.__dict__["_key"] = cached  # frozen: bypass __setattr__
        return cached[1]

    def as_spec(self) -> dict:
        """Plain-dict form shipped to the worker subprocess."""
        return {"task": self.task, "kwargs": dict(self.kwargs), "label": self.label}
