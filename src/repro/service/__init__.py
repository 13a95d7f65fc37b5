"""Graceful-degradation scenario-query service.

A long-lived, stdlib-only (``asyncio`` + thread pool) front end over the
paper's solvers: clients ask capacity-planning questions — *"at these
loads, which policy keeps E[T_S] under x?"* — each with a wall-clock
deadline budget, and the service answers at the best **fidelity** the
budget and the fault weather allow instead of timing out or lying:

``exact`` → ``bound``

An exact answer is either solved (QBD analyses plus invariant contracts)
or replayed bit for bit from the memo of validated exact answers; the
closed-form bound answers whenever the exact rung cannot.

Overload is shed at admission (typed
:class:`~repro.robustness.ServiceOverloadError` with a retry-after
hint); repeated solver failures in a parameter region trip a circuit
breaker; transient worker faults are retried with jittered backoff; and
every answer carries the fidelity tag plus the rung-attempt log that
justifies it, checked by the ``service-answer`` contracts.

Entry points: ``python -m repro serve --batch queries.json`` for batch
mode, :class:`QueryService` for programmatic use, and the chaos harness
in ``tests/test_service_chaos.py`` for the survival guarantees.  See
``docs/robustness.md`` §8.
"""

from .chaos import SimulatedWorkerCrash
from .fidelity import coarse_bounds
from .query import FIDELITY_LEVELS, POLICIES, ScenarioQuery, ServiceAnswer
from .service import QueryService

__all__ = [
    "FIDELITY_LEVELS",
    "POLICIES",
    "QueryService",
    "ScenarioQuery",
    "ServiceAnswer",
    "SimulatedWorkerCrash",
    "coarse_bounds",
]
