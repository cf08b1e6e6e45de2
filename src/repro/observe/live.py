"""Live streaming metrics + request-scoped tracing for long-running services.

The cumulative counters of :mod:`repro.telemetry` answer "what happened
since the process started"; a serving session needs "what is happening
*right now*".  This module provides the two primitives the
classification service (:mod:`repro.serve`) wires in:

**Rolling-window metrics** -- :class:`RollingCounter` and
:class:`RollingHistogram` keep a ring of per-slot aggregates covering
the last ``window_s`` seconds in **fixed memory**, however many
observations stream through:

* a counter's ring holds one count per slot, so :meth:`RollingCounter.rate`
  is the true windowed throughput;
* a histogram is the codebase's one histogram type,
  :class:`repro.telemetry.Histogram` (log-spaced bins, exact
  count/sum/min/max), plus one bin array per slot, so windowed
  quantiles (:meth:`RollingHistogram.percentile`) are exact to within
  one bin -- a bounded relative error -- and a one-million-sample soak
  allocates nothing.  The base class's cumulative bins feed the
  session-record summaries (latency quantiles, queue-depth and
  batch-size histograms) without keeping raw samples.

**Request-scoped tracing** -- a :class:`TraceContext` is minted per wire
request (in :mod:`repro.serve.protocol`) and threaded through the
middleware pipeline, the micro-batcher and the predict-executor hop.
Each hop appends a finished child :class:`~repro.telemetry.spans.Span`
(``serve.queue`` -> ``serve.batch`` -> ``serve.predict`` ->
``serve.write``), building a per-request span tree *detached from the
global tracer* (so tracing works with telemetry disabled and costs a
few microseconds).  The server tail-samples: only slow or failed
requests are kept, bounded, for Perfetto export.

:class:`LiveMetrics` bundles the serving instruments and produces the
internally consistent snapshot the in-band ``{"op": "stats"}`` request
and the ``repro top`` dashboard render.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from repro.telemetry.metrics import Histogram
from repro.telemetry.spans import Span

__all__ = [
    "LiveMetrics",
    "RollingCounter",
    "RollingHistogram",
    "TraceContext",
    "render_top",
]

#: Default rolling window: ten one-second slots.
DEFAULT_WINDOW_S = 10.0
DEFAULT_SLOTS = 10


class RollingCounter:
    """A monotonic count with a fixed-memory rolling-window rate.

    ``add()`` lands in the ring slot owning the current time;
    :meth:`rate` sums the slots still inside the window and divides by
    the window they cover.  ``total`` is cumulative (never expires).
    """

    __slots__ = ("slot_s", "slots", "total", "_counts", "_stamps", "_lock")

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 slots: int = DEFAULT_SLOTS):
        if not window_s > 0 or not slots > 0:
            raise ValueError(
                f"window_s and slots must be positive, got "
                f"{window_s!r}/{slots!r}")
        self.slot_s = window_s / slots
        self.slots = slots
        self.total = 0
        self._counts = [0] * slots
        self._stamps = [-1] * slots  # absolute slot number, -1 = empty
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _slot(self, now: float) -> int:
        """Claim the ring slot for ``now``, recycling a stale one."""
        absolute = int(now / self.slot_s)
        index = absolute % self.slots
        if self._stamps[index] != absolute:
            self._stamps[index] = absolute
            self._counts[index] = 0
        return index

    def add(self, n: int = 1, now: float | None = None) -> None:
        now = time.time() if now is None else now
        with self._lock:
            self._counts[self._slot(now)] += n
            self.total += n

    def window_count(self, now: float | None = None) -> int:
        """Observations inside the window ending at ``now``."""
        now = time.time() if now is None else now
        oldest = int(now / self.slot_s) - self.slots + 1
        with self._lock:
            return sum(c for c, s in zip(self._counts, self._stamps)
                       if s >= oldest)

    def rate(self, now: float | None = None) -> float:
        """Windowed throughput in events/second."""
        return self.window_count(now) / (self.slot_s * self.slots)


class RollingHistogram(Histogram):
    """A :class:`~repro.telemetry.metrics.Histogram` plus a rolling window.

    ``lo``/``hi``/``rel_error`` set the bin geometry as for the base
    class, which keeps the cumulative bins and exact count/sum/min/max
    (:meth:`cumulative_percentile`, :meth:`summary`).  On top, a ring
    holds one ``int64`` bin array per slot; a windowed
    :meth:`percentile` sums the live slots and reads them the same way.
    Total memory is ``(slots + 1) * n_bins`` int64 regardless of how
    many observations stream through -- the property the 1M-sample soak
    test pins.
    """

    __slots__ = ("slot_s", "slots", "_ring", "_stamps")

    def __init__(self, *, window_s: float = DEFAULT_WINDOW_S,
                 slots: int = DEFAULT_SLOTS, **geometry):
        super().__init__(**geometry)
        self.slot_s = window_s / slots
        self.slots = slots
        self._ring = np.zeros((slots, len(self._bins)), dtype=np.int64)
        self._stamps = [-1] * slots

    # ------------------------------------------------------------------ #
    def observe(self, value: float, now: float | None = None) -> None:
        value = float(value)
        now = time.time() if now is None else now
        absolute = int(now / self.slot_s)
        index = absolute % self.slots
        b = self._bin(value)
        with self._lock:
            if self._stamps[index] != absolute:
                self._stamps[index] = absolute
                self._ring[index, :] = 0
            self._ring[index, b] += 1
            self._record(value, b)

    def _live_bins(self, now: float) -> np.ndarray:
        oldest = int(now / self.slot_s) - self.slots + 1
        return self._ring[[s >= oldest for s in self._stamps]].sum(axis=0)

    def percentile(self, q: float, now: float | None = None) -> float:
        """Windowed percentile (0.0 when the window is empty)."""
        now = time.time() if now is None else now
        with self._lock:
            return self._value_at(self._live_bins(now), q)

    def window_count(self, now: float | None = None) -> int:
        now = time.time() if now is None else now
        with self._lock:
            return int(self._live_bins(now).sum())

    def cumulative_percentile(self, q: float) -> float:
        """Whole-stream percentile from the cumulative bins."""
        return super().percentile(q)

    @property
    def nbytes(self) -> int:
        return super().nbytes + self._ring.nbytes


# ---------------------------------------------------------------------- #
# Request-scoped tracing
# ---------------------------------------------------------------------- #
_TRACE_SEQ = itertools.count(1)


class TraceContext:
    """One request's span tree, detached from the global tracer.

    The root span opens at mint time; hops append finished children via
    :meth:`add` (timings measured elsewhere, e.g. by the micro-batcher)
    or :meth:`span` (a live ``with`` region).  :meth:`finish` closes the
    root and returns it for tail-sampling.  Everything is plain
    :class:`~repro.telemetry.spans.Span` objects, so a sampled tree
    exports through the existing Chrome/Perfetto writer unchanged.
    """

    __slots__ = ("trace_id", "root", "_t0")

    def __init__(self, name: str = "serve.request", **attrs):
        self.trace_id = f"req-{next(_TRACE_SEQ):06x}"
        self.root = Span(name, {"trace_id": self.trace_id, **attrs}, None)
        self.root.start_wall = time.time()
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------ #
    def add(self, name: str, start_wall: float, duration_s: float,
            **attrs) -> Span:
        """Append an already-timed child span."""
        span = Span(name, attrs, None)
        span.start_wall = start_wall
        span.duration_s = max(0.0, duration_s)
        self.root.children.append(span)
        return span

    def span(self, name: str, **attrs) -> Span:
        """A live child region: ``with trace.span("serve.write"): ...``."""
        span = Span(name, attrs, None)
        self.root.children.append(span)
        return span

    def attach(self, span: Span) -> None:
        """Adopt a span built elsewhere (e.g. the shared predict span a
        fused batch appends to every participating request)."""
        self.root.children.append(span)

    def set(self, **attrs) -> "TraceContext":
        self.root.attrs.update(attrs)
        return self

    def finish(self, **attrs) -> Span:
        """Close the root span (idempotent) and return it."""
        if attrs:
            self.root.attrs.update(attrs)
        if not self.root.duration_s:
            self.root.duration_s = time.perf_counter() - self._t0
        self.root.children.sort(key=lambda s: s.start_wall)
        return self.root

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._t0


# ---------------------------------------------------------------------- #
# The serving instrument bundle
# ---------------------------------------------------------------------- #
class LiveMetrics:
    """Every live instrument of one serving session, one snapshot call.

    All instruments share the same window geometry, so one
    :meth:`snapshot` reads a consistent picture of the last
    ``window_s`` seconds; latency is in milliseconds throughout.
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 slots: int = DEFAULT_SLOTS):
        self.window_s = window_s
        kw = {"window_s": window_s, "slots": slots}
        # Latencies in ms: 1 us .. 1000 s covers a stalled deadline.
        self.latency_ms = RollingHistogram(lo=1e-3, hi=1e6, **kw)
        self.queue_depth = RollingHistogram(lo=0.5, hi=1e6, **kw)
        self.batch_shots = RollingHistogram(lo=0.5, hi=1e8, **kw)
        self.batch_requests = RollingHistogram(lo=0.5, hi=1e6, **kw)
        self.requests = RollingCounter(**kw)
        self.shots = RollingCounter(**kw)
        self.errors = RollingCounter(**kw)
        self.rejected = RollingCounter(**kw)
        self.latency_violations = RollingCounter(**kw)

    # ------------------------------------------------------------------ #
    def snapshot(self, now: float | None = None) -> dict:
        """The rolling-window section of the live stats snapshot."""
        now = time.time() if now is None else now
        lat = self.latency_ms
        return {
            "window_s": self.window_s,
            "requests": self.requests.window_count(now),
            "requests_per_sec": round(self.requests.rate(now), 2),
            "shots_per_sec": round(self.shots.rate(now), 1),
            "errors": self.errors.window_count(now),
            "rejected": self.rejected.window_count(now),
            "latency_violations":
                self.latency_violations.window_count(now),
            "latency_p50_ms": round(lat.percentile(50, now), 3),
            "latency_p95_ms": round(lat.percentile(95, now), 3),
            "latency_p99_ms": round(lat.percentile(99, now), 3),
            "queue_depth_p50": round(self.queue_depth.percentile(50, now), 1),
            "queue_depth_p99": round(self.queue_depth.percentile(99, now), 1),
            "batch_shots_p50": round(self.batch_shots.percentile(50, now), 1),
            "batch_requests_p50":
                round(self.batch_requests.percentile(50, now), 1),
        }

    def record_summaries(self) -> dict[str, float]:
        """Whole-session histogram metrics for the ``kind="serve"``
        RunRecord (queue-depth and fused-batch-size distributions)."""
        out: dict[str, float] = {}
        for prefix, hist in (("serve.queue_depth", self.queue_depth),
                             ("serve.batch_shots", self.batch_shots),
                             ("serve.batch_requests", self.batch_requests)):
            summary = hist.summary()
            if not summary.get("count"):
                continue
            out[f"{prefix}_p50"] = round(summary["p50"], 1)
            out[f"{prefix}_p95"] = round(summary["p95"], 1)
            out[f"{prefix}_max"] = round(summary["max"], 1)
        return out


# ---------------------------------------------------------------------- #
# The `repro top` rendering (pure text in, so it is trivially testable)
# ---------------------------------------------------------------------- #
def _num(value, digits: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return f"{value:,}"


def render_top(snapshot: dict, endpoint: str = "") -> str:
    """One refresh frame of the ``repro top`` terminal dashboard."""
    window = snapshot.get("window", {})
    counters = snapshot.get("counters", {})
    slo = snapshot.get("slo", {})
    health = snapshot.get("health", {})
    models = snapshot.get("models", {})
    lines = [
        f"repro serve {endpoint or snapshot.get('endpoint', '?')} -- "
        f"up {snapshot.get('uptime_s', 0.0):,.1f} s, "
        f"{len(models)} model(s): {', '.join(sorted(models)) or '-'}",
        f"window ({window.get('window_s', 0):g} s): "
        f"{_num(window.get('requests_per_sec'))} req/s  "
        f"{_num(window.get('shots_per_sec'), 0)} shots/s  "
        f"latency p50 {_num(window.get('latency_p50_ms'), 2)} ms  "
        f"p95 {_num(window.get('latency_p95_ms'), 2)}  "
        f"p99 {_num(window.get('latency_p99_ms'), 2)}",
        f"queue: depth now {snapshot.get('inflight', 0)} of "
        f"{snapshot.get('max_queue', 0)} (window p99 "
        f"{_num(window.get('queue_depth_p99'))})  "
        f"batch: shots p50 {_num(window.get('batch_shots_p50'))}, "
        f"requests p50 {_num(window.get('batch_requests_p50'))}",
        f"totals: {_num(counters.get('serve.requests', 0))} requests  "
        f"{_num(counters.get('serve.shots', 0))} shots  "
        f"{_num(counters.get('serve.rejected', 0))} rejected  "
        f"{_num(counters.get('serve.deadline_expired', 0))} deadline  "
        f"{_num(counters.get('serve.internal_errors', 0))} errors",
    ]
    checks = slo.get("checks", [])
    if checks:
        parts = []
        for check in checks:
            parts.append(
                f"{check.get('name', '?')} burn "
                f"{check.get('burn_rate', 0.0):.2f}x "
                f"{check.get('status', '?')}")
        lines.append(f"SLO [{slo.get('verdict', '?')}]: "
                     + "  ".join(parts))
    lines.append(
        f"health: loop lag p99 "
        f"{_num(health.get('loop_lag_p99_ms'), 2)} ms  "
        f"{_num(counters.get('serve.slow_client_disconnects', 0))} "
        f"slow-client disconnects  "
        f"{_num(counters.get('serve.stats_scrapes', 0))} scrapes")
    return "\n".join(lines)
