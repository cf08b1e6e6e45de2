"""repro.telemetry: tracing + metrics for the whole flow (stdlib + numpy).

Design goals, in priority order:

1. **Near-zero overhead when off.**  Telemetry is disabled by default;
   every façade helper starts with one test of the module-level
   ``_enabled`` flag and returns immediately (for spans, with the shared
   :data:`~repro.telemetry.spans.NOOP_SPAN` singleton -- no allocation).
   Instrumented code therefore costs one branch per touchpoint, which
   ``benchmarks/test_bench_telemetry.py`` bounds at < 2 % of the
   ``transient()`` hot path.
2. **Spans**: nested timed regions with arbitrary attributes, collected
   into a per-run trace tree (:class:`~repro.telemetry.spans.Tracer`).
3. **Metrics**: named counters/gauges/histograms in a process-local
   :class:`~repro.telemetry.metrics.MetricsRegistry`.

Typical use::

    from repro import telemetry

    telemetry.enable()
    with telemetry.span("cells.build_library", corner="10K") as sp:
        ...
        sp.set(cells=203)
    telemetry.count("solver.newton_iterations", 42)

    print(telemetry.render_tree())        # nested stage timings
    telemetry.export_jsonl("trace.jsonl") # offline analysis
    telemetry.metrics_summary()           # flat {name: value} dict

State is process-global; span nesting is per-thread and worker
processes ship their state back as snapshots (:func:`snapshot` /
:func:`merge_snapshot`), so the parallel runtime's fan-outs stay fully
traced.  :func:`reset` wipes both the trace and the registry, which
tests and the CLI do between runs.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.sinks import (
    format_tree,
    metrics_lines,
    read_jsonl,
    write_jsonl,
)
from repro.telemetry.spans import NOOP_SPAN, Span, Tracer, iso_ts

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "count",
    "disable",
    "enable",
    "enabled",
    "export_jsonl",
    "format_tree",
    "gauge",
    "iso_ts",
    "merge_snapshot",
    "metrics_lines",
    "metrics_summary",
    "observe",
    "read_jsonl",
    "registry",
    "render_tree",
    "reset",
    "snapshot",
    "span",
    "trace_roots",
    "tracer",
    "write_jsonl",
]

_enabled = False

tracer = Tracer()
registry = MetricsRegistry()


# ---------------------------------------------------------------------- #
# Lifecycle
# ---------------------------------------------------------------------- #
def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _enabled


def enable() -> None:
    """Turn recording on (idempotent)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn recording off; collected data is kept until :func:`reset`."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop every collected span and metric (the enabled flag is kept)."""
    tracer.reset()
    registry.reset()


# ---------------------------------------------------------------------- #
# Instrumentation façade -- each helper is one branch when disabled.
# ---------------------------------------------------------------------- #
def span(name: str, **attrs):
    """Open a traced region: ``with telemetry.span("stage", k=v) as sp:``.

    Returns the shared no-op singleton while disabled, so the call
    neither allocates nor touches the tracer.
    """
    if not _enabled:
        return NOOP_SPAN
    return tracer.start(name, attrs)


def count(name: str, n: int = 1) -> None:
    """Increment a counter (no-op while disabled)."""
    if _enabled:
        registry.counter(name).inc(n)


def gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    if _enabled:
        registry.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op while disabled)."""
    if _enabled:
        registry.histogram(name).observe(value)


# ---------------------------------------------------------------------- #
# Cross-process transport: a worker snapshots its whole telemetry state
# and ships it back; the parent merges it into the live trace/registry.
# ---------------------------------------------------------------------- #
def snapshot() -> dict:
    """Everything collected so far as picklable plain data."""
    return {
        "spans": [root.to_dict() for root in tracer.roots],
        "metrics": registry.snapshot_data(),
    }


def merge_snapshot(snap: dict, parent: Span | None = None) -> None:
    """Fold a worker's :func:`snapshot` into this process's telemetry.

    Span trees attach under ``parent`` (default: the calling thread's
    active span, falling back to new roots); metrics merge with their
    natural semantics (counters add, histogram bins add, gauges
    last-write-win).
    """
    spans = [Span.from_dict(d) for d in snap.get("spans", [])]
    if spans:
        tracer.adopt(spans, parent)
    registry.merge_data(snap.get("metrics", {}))


# ---------------------------------------------------------------------- #
# Readout
# ---------------------------------------------------------------------- #
def trace_roots() -> list[Span]:
    """Finished root spans of the current run."""
    return tracer.roots


def render_tree(min_duration_s: float = 0.0,
                max_depth: int | None = None) -> str:
    """The collected trace as an indented timing table."""
    return format_tree(tracer.roots, min_duration_s=min_duration_s,
                       max_depth=max_depth)


def export_jsonl(file) -> int:
    """Write the collected trace as JSONL; returns the span count."""
    return write_jsonl(tracer.roots, file)


def metrics_summary() -> dict[str, object]:
    """Flat ``{instrument name: value}`` view of the registry."""
    return registry.summary()
