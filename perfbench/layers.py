"""Outside-in layer tracing for the benchmark's traced runs.

The wrappers here are installed from outside the package, around the
public entry points of each ``repro`` module, so nothing under ``src/``
changes.  Each wrapper keeps a per-thread call stack and splits wall time
into *self time* per layer: the time spent inside the layer's entry
point minus the time spent in wrapped calls it made into other layers.
Hooks read call arguments and results for counts (QBD solves, store
bytes, contract failures, ...).

Forked worker processes inherit the wrappers.  They start from zeroed
statistics and write their own record after every sweep point; the main
process writes its record from :func:`dump`.  A target that does not
exist in the code under test is reported in the record's ``absent`` list,
never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

perf_counter = time.perf_counter

#: Public methods of these classes are wrapped, plus ``__init__``.
_CORE_CLASSES = (
    ("repro.core.cs_cq", "CsCqAnalysis"),
    ("repro.core.cs_cq_ph", "CsCqPhAnalysis"),
    ("repro.core.cs_id", "CsIdAnalysis"),
    ("repro.core.cs_id", "LongHostCycle"),
    ("repro.core.cs_id_ph", "CsIdPhAnalysis"),
    ("repro.core.dedicated", "DedicatedAnalysis"),
)
_BUSY_CLASSES = (
    ("repro.busy_periods.mg1_busy", "MG1BusyPeriod"),
    ("repro.busy_periods.nplus1", "NPlusOneBusyPeriod"),
    ("repro.busy_periods.delay_busy", "DelayBusyPeriod"),
)
_BUSY_FUNCTIONS = (
    ("repro.busy_periods.moment_algebra", "mg1_busy_period_moments"),
    ("repro.busy_periods.moment_algebra", "delay_busy_period_moments"),
    ("repro.busy_periods.moment_algebra", "random_sum_moments"),
    ("repro.busy_periods.moment_algebra", "poisson_during_exponential_factorial_moments"),
    ("repro.busy_periods.moment_algebra", "poisson_during_ph_factorial_moments"),
    ("repro.busy_periods.nplus1", "initial_work_moments_nplus1"),
    ("repro.busy_periods.numeric", "moments_from_laplace"),
)


class Recorder:
    """Per-process layer statistics: self time, counts and samples."""

    def __init__(self):
        self.reset()
        #: Layers with at least one wrapped entry point, and missing targets.
        self.present: "set[str]" = set()
        self.absent: "list[str]" = []
        self.main_pid = os.getpid()
        self.out_dir: "str | None" = None

    def reset(self) -> None:
        self.lock = threading.Lock()
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.counts: "dict[str, float]" = defaultdict(float)
        self.samples: "dict[str, list]" = defaultdict(list)
        self.local = threading.local()
        #: Submit instants of in-flight service queries, by ``id(query)``.
        self.submitted: "dict[int, float]" = {}
        self.enabled = True

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add(self, name: str, value: float = 1.0) -> None:
        with self.lock:
            self.counts[name] += value

    def sample(self, name: str, value: float) -> None:
        with self.lock:
            self.samples[name].append(value)

    def account(self, layer: str, self_time: float, nested: bool, count: bool) -> None:
        with self.lock:
            self.self_s[layer] += self_time
            if count:
                self.counts[layer + ".calls"] += 1
                if not nested:
                    self.counts[layer + ".entries"] += 1

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "pid": os.getpid(),
                "main": os.getpid() == self.main_pid,
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "present": sorted(self.present),
                "absent": list(self.absent),
            }

    def dump(self) -> None:
        """Write this process's record to ``<out_dir>/stats-<pid>.json``."""
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"stats-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)

    def after_fork(self) -> None:
        self.reset()


RECORDER = Recorder()


def _timed(fn, layer: "str | None", hook=None, count: bool = True):
    """Wrap ``fn``: self time into ``layer``, then ``hook(args, kwargs, result, exc)``.

    With ``layer=None`` the call's time is excluded from its caller's self
    time without being credited to any layer.  ``count=False`` credits the
    time without counting a call.
    """
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled or getattr(rec.local, "muted", False):
            return fn(*args, **kwargs)
        stack = rec.stack()
        nested = bool(stack) and stack[-1][0] == layer
        frame = [layer, 0.0]
        stack.append(frame)
        result = exc = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as error:
            exc = error
            raise
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            if layer is not None:
                rec.account(layer, elapsed - frame[1], nested, count)
            if hook is not None:
                # Wrapped calls a hook makes (a store digest, say) are not
                # the program's work: record nothing while it runs.
                rec.local.muted = True
                try:
                    hook(args, kwargs, result, exc)
                except Exception:  # a hook must never change the program
                    pass
                finally:
                    rec.local.muted = False

    return wrapper


# --------------------------------------------------------------------------- #
# Hooks: counts read from call arguments and results
# --------------------------------------------------------------------------- #


def _sweep_outcomes(args, kwargs, result, exc):
    for outcome in result or ():
        RECORDER.add("orchestration.points")
        if getattr(outcome, "status", None) in ("failed", "timeout", "suspect"):
            RECORDER.add("orchestration.points_failed")


def _file_id(path) -> "tuple[int, int] | None":
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size


def _timed_journal(fn):
    """``CheckpointJournal.record``: also the bytes the call wrote.

    A journal file replaced by the call (a new inode) was written in full;
    one kept in place grew by the difference of its sizes.
    """
    inner = _timed(fn, "orchestration.journal")

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        before = _file_id(self.path)
        try:
            return inner(self, *args, **kwargs)
        finally:
            after = _file_id(self.path)
            if after is not None and RECORDER.enabled:
                replaced = before is None or before[0] != after[0]
                written = after[1] if replaced else max(0, after[1] - before[1])
                RECORDER.add("orchestration.journal_bytes", written)

    return wrapper


def _worker_point(args, kwargs, result, exc):
    if os.getpid() != RECORDER.main_pid:
        RECORDER.dump()


def _analysis_init(args, kwargs, result, exc):
    RECORDER.add("core.analyses")


def _qbd_solve(args, kwargs, result, exc):
    diag = getattr(result, "diagnostics", None)
    if diag is None or getattr(diag, "cache_hit", False):
        return
    RECORDER.add("markov.qbd_solves")
    RECORDER.add("markov.r_iterations", diag.iterations or 0)
    if len(getattr(diag, "rungs", ()) or ()) > 1:
        RECORDER.add("markov.fallbacks")
    trust = getattr(diag, "trust", "absent")
    if trust != "absent" and trust != "trusted":
        RECORDER.add("robustness.not_trusted")


def _newton_polish(args, kwargs, result, exc):
    RECORDER.add("robustness.escalations")


def _contracts_evaluate(args, kwargs, result, exc):
    RECORDER.add("contracts.failed", sum(1 for r in result or () if not r.passed))


def _cache_status(args, kwargs, result, exc):
    if result is not None and result[1] != "computed":
        RECORDER.add("perf.cache.hits")


def _cache_lookup(args, kwargs, result, exc):
    if result is not None and result[0]:
        RECORDER.add("perf.cache.hits")


def _entry_size(store, namespace, key) -> int:
    return os.path.getsize(store.entry_path(namespace, store.digest(namespace, key)))


def _store_get(args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "StoreCorruptionError":
        RECORDER.add("perf.store.corrupt")
    if result is not None and result[0]:
        RECORDER.add("perf.store.hits")
        RECORDER.add("perf.store.read_bytes", _entry_size(*args[:3]))


def _store_put(args, kwargs, result, exc):
    if result:
        RECORDER.add("perf.store.write_bytes", _entry_size(*args[:3]))


def _cached_rung(args, kwargs, result, exc):
    if result is not None:
        RECORDER.add("service.cached_hits")


def _simulation_run(args, kwargs, result, exc):
    RECORDER.add("simulation.jobs", getattr(args[0], "_completed", 0))


def _timed_cache(fn):
    """``get_or_compute_with_status``: a miss's ``compute`` belongs to the caller.

    The computation a cache miss runs (a QBD solve, a PH fit, ...) is
    credited to the layer that called the cache, so ``perf.cache`` self
    time is the cache's own bookkeeping.
    """
    inner = _timed(fn, "perf.cache", _cache_status)

    @functools.wraps(fn)
    def wrapper(self, namespace, key, compute, *args, **kwargs):
        stack = RECORDER.stack()
        caller = stack[-1][0] if stack else None
        compute = _timed(compute, caller, count=False)
        return inner(self, namespace, key, compute, *args, **kwargs)

    return wrapper


def _timed_exact_rung(fn):
    """``exact_rung`` also yields the queue wait since its query's submit."""
    inner = _timed(fn, "service.exact")

    @functools.wraps(fn)
    def wrapper(query, *args, **kwargs):
        started = perf_counter()
        submitted = RECORDER.submitted.get(id(query))
        if submitted is not None:
            RECORDER.sample("service.queue_wait_s", started - submitted)
        try:
            return inner(query, *args, **kwargs)
        finally:
            RECORDER.sample("service.exact_s", perf_counter() - started)

    return wrapper


def _timed_submit(fn):
    """Async ``QueryService.submit``: submit instant, rungs, retries, sheds."""

    @functools.wraps(fn)
    async def wrapper(self, query, *args, **kwargs):
        RECORDER.submitted[id(query)] = perf_counter()
        try:
            answer = await fn(self, query, *args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "ServiceOverloadError":
                RECORDER.add("service.shed")
            raise
        finally:
            RECORDER.submitted.pop(id(query), None)
        RECORDER.add("service.answers")
        RECORDER.add("service.rungs", len(answer.attempts))
        RECORDER.add("service.retries", answer.retries)
        return answer

    return wrapper


# --------------------------------------------------------------------------- #
# Installation
# --------------------------------------------------------------------------- #


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, value)`` for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that refers to ``original``.

    Modules that imported a function by name hold their own reference;
    rebinding them all is what makes a module-level wrapper see every call.
    """
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _patch(module_name: str, path: str, layer: str, hook=None, make=None) -> None:
    """Wrap ``module.path`` (a function, or ``Class.method``) for ``layer``."""
    found = _resolve(module_name, path)
    if found is None:
        RECORDER.absent.append(f"{module_name}.{path}")
        return
    owner, attr, original = found
    kind = type(original) if isinstance(original, (staticmethod, classmethod)) else None
    func = original.__func__ if kind else original
    replacement = (make or (lambda f: _timed(f, layer, hook)))(func)
    if kind:
        replacement = kind(replacement)
    elif isinstance(owner, types.ModuleType) and func.__module__.startswith("repro"):
        _replace_everywhere(original, replacement)
    setattr(owner, attr, replacement)
    RECORDER.present.add(layer)


def _patch_class(module_name: str, class_name: str, layer: str, init_hook=None) -> None:
    """Wrap ``__init__`` and every public method of a class."""
    found = _resolve(module_name, class_name)
    if found is None:
        RECORDER.absent.append(f"{module_name}.{class_name}")
        return
    for name, value in list(vars(found[2]).items()):
        func = value.__func__ if isinstance(value, (staticmethod, classmethod)) else value
        if isinstance(func, types.FunctionType) and (name == "__init__" or name[0] != "_"):
            hook = init_hook if name == "__init__" else None
            _patch(module_name, f"{class_name}.{name}", layer, hook)


def install(out_dir: str) -> None:
    """Wrap every layer's entry points and arrange per-process records."""
    RECORDER.out_dir = out_dir
    RECORDER.main_pid = os.getpid()
    os.register_at_fork(after_in_child=RECORDER.after_fork)

    runner = "repro.orchestration.runner"
    _patch(runner, "SweepRunner.run", "orchestration.run", _sweep_outcomes)
    _patch(runner, "wait", "orchestration.wait")
    _patch(runner, "_execute_point", "worker", make=lambda f: _timed(f, None, _worker_point))
    _patch("repro.orchestration.checkpoint", "CheckpointJournal.record",
           "orchestration.journal", make=_timed_journal)
    _patch("repro.orchestration.manifest", "RunManifest.write", "orchestration.manifest")

    for name in ("figure4_panels", "figure6_panels"):
        _patch("repro.experiments.figures", name, "experiments")
    _patch("repro.experiments.base", "format_panel", "experiments")

    for module_name, class_name in _CORE_CLASSES:
        hook = None if class_name == "LongHostCycle" else _analysis_init
        _patch_class(module_name, class_name, "core", hook)
    for module_name, class_name in _BUSY_CLASSES:
        _patch_class(module_name, class_name, "busy_periods")
    for module_name, name in _BUSY_FUNCTIONS:
        _patch(module_name, name, "busy_periods")

    _patch("repro.distributions.fitting", "fit_phase_type", "distributions")
    _patch("repro.core.cs_cq", "fit_busy_period", "distributions")

    _patch("repro.markov.qbd", "QbdProcess.solve", "markov", _qbd_solve)
    diagnostics = _resolve("repro.robustness.report", "SolverDiagnostics")
    if diagnostics and "trust" in getattr(diagnostics[2], "__dataclass_fields__", {}):
        RECORDER.present.add("robustness.verdict")
    else:
        RECORDER.absent.append("repro.robustness.report.SolverDiagnostics.trust")

    trust = "repro.robustness.trust"
    _patch(trust, "condest_1", "robustness.condest")
    _patch(trust, "newton_polish_r", "robustness.escalation", _newton_polish)
    _patch(trust, "refined_solve", "robustness.escalation")

    _patch("repro.contracts.registry", "evaluate", "contracts", _contracts_evaluate)

    cache = "repro.perf.cache"
    _patch(cache, "SweepCache.get_or_compute_with_status", "perf.cache", make=_timed_cache)
    _patch(cache, "SweepCache.lookup", "perf.cache", _cache_lookup)
    store = "repro.perf.store"
    _patch(store, "ResultStore.get", "perf.store.get", _store_get)
    _patch(store, "ResultStore.put", "perf.store.put", _store_put)
    _patch("repro.perf.codec", "encode_value", "perf.codec.encode")
    _patch("repro.perf.codec", "decode_value", "perf.codec.decode")

    fidelity = "repro.service.fidelity"
    _patch(fidelity, "exact_rung", "service.exact", make=_timed_exact_rung)
    _patch(fidelity, "cached_rung", "service.cached", _cached_rung)
    _patch("repro.service.service", "QueryService.submit", "service.submit",
           make=_timed_submit)

    _patch("repro.simulation.engine", "TwoHostSimulation.run", "simulation", _simulation_run)


def dump() -> None:
    RECORDER.dump()
