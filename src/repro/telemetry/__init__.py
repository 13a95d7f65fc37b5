"""Unified telemetry: structured tracing, metrics, convergence introspection.

Three pieces, all stdlib-only (safe to import from ``repro.perf`` and
other import-light packages):

``tracer``
    ``with span("qbd.r_matrix") as sp:`` context managers recording
    nested wall time and attributes into a per-process collector, with
    JSONL export under ``results/TRACE_*.jsonl``.  Off by default —
    disabled mode is a single dict lookup;
    enable with ``REPRO_TRACE=1`` or the CLI ``--trace`` flag.  Spans
    degrade gracefully (never raise), so telemetry cannot fail a sweep.
``metrics``
    A process-wide registry of counters, gauges, and fixed-bucket
    histograms.  Always on (updates are per-solve, never per-event).
    The orchestration runner snapshots worker registries across the
    subprocess boundary, merges them driver-side, and writes the merged
    snapshot into the run manifest.
``render``
    ``python -m repro trace`` backend: terminal span tree with
    self/total times, top-k slowest spans, non-converged fixpoint flags,
    integrity checks (negative self-time, unclosed parents), and
    per-stage diffs between two traces.

See ``docs/observability.md`` for the span taxonomy and metric names.
"""

from .metrics import (
    DEFAULT_TIME_EDGES,
    Histogram,
    MetricsRegistry,
    counter_inc,
    gauge_set,
    observe,
    registry,
)
from .render import (
    build_tree,
    check_trace,
    coverage_fraction,
    diff_traces,
    flag_convergence,
    load_trace,
    render_trace,
    self_times,
    top_spans,
)
from .tracer import (
    TRACE_ENV_VAR,
    IterationTrace,
    TraceCollector,
    current_collector,
    current_span_id,
    disable_tracing,
    enable_tracing,
    set_span_attribute,
    span,
    trace_scope,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_TIME_EDGES",
    "Histogram",
    "IterationTrace",
    "MetricsRegistry",
    "TRACE_ENV_VAR",
    "TraceCollector",
    "build_tree",
    "check_trace",
    "counter_inc",
    "coverage_fraction",
    "current_collector",
    "current_span_id",
    "diff_traces",
    "disable_tracing",
    "enable_tracing",
    "flag_convergence",
    "gauge_set",
    "load_trace",
    "observe",
    "registry",
    "render_trace",
    "self_times",
    "set_span_attribute",
    "span",
    "top_spans",
    "trace_scope",
    "tracing_enabled",
]
