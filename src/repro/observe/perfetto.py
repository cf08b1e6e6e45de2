"""Chrome/Perfetto ``trace_event`` export of the telemetry span tree.

The JSONL trace (:mod:`repro.telemetry.sinks`) is lossless but raw;
this module renders the same tree in the `trace_event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
so any run opens directly in ``ui.perfetto.dev`` or
``chrome://tracing``:

* every finished :class:`~repro.telemetry.spans.Span` becomes one
  complete event (``ph="X"``) with microsecond ``ts``/``dur`` and its
  attributes as ``args``;
* spans that overlap a sibling -- the re-parented worker subtrees a
  parallel fan-out merges back across the thread/pickle boundary --
  are placed on their own synthetic track (``tid``), so executor
  workers render as parallel lanes instead of corrupting the nesting;
* each track gets a ``thread_name`` metadata event and the process a
  ``process_name``, so the UI labels lanes ``main`` / ``lane-N``;
* a :class:`~repro.observe.sampler.ResourceSampler` timeseries, when
  provided, becomes counter tracks (``ph="C"``) for RSS, CPU and
  thread count drawn above the spans.

The output is one JSON object (``{"traceEvents": [...]}``), the
variant every trace viewer accepts.  :func:`write_trace` is the one
entry point that picks between this document and the JSONL form from
the file name.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from repro.telemetry.sinks import write_jsonl
from repro.telemetry.spans import Span

__all__ = ["trace_events", "write_chrome_trace", "write_trace"]

#: Synthetic pid for all events: the tree may span real processes, but
#: by merge time it is one logical trace.
_PID = 1

_MAIN_TID = 1

#: Serial siblings may jitter a hair "backwards" (start_wall is
#: time.time() while durations are perf_counter deltas); within this
#: grace they reuse the lane instead of spuriously fanning out.
_LANE_GRACE_S = 1e-3


def _span_events(roots: Iterable[Span]) -> tuple[list[dict], int]:
    """Complete events for every span; returns (events, track count).

    Track allocation: a span inherits its parent's track unless its
    time range overlaps an earlier sibling on that track, in which
    case it claims the next free track.  Serial children therefore
    stay on one lane while parallel (worker) children fan out.
    """
    events: list[dict] = []
    next_tid = _MAIN_TID + 1

    def place(span: Span, tid: int) -> None:
        nonlocal next_tid
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": span.start_wall * 1e6,
            "dur": max(span.duration_s, 0.0) * 1e6,
            "pid": _PID,
            "tid": tid,
            "args": {k: _jsonable(v) for k, v in span.attrs.items()},
        })
        lanes: list[tuple[int, float]] = []  # (tid, end wall) per lane
        for child in sorted(span.children, key=lambda s: s.start_wall):
            child_tid = None
            for i, (lane_tid, lane_end) in enumerate(lanes):
                if child.start_wall >= lane_end - _LANE_GRACE_S:
                    child_tid = lane_tid
                    lanes[i] = (lane_tid, child.start_wall
                                + child.duration_s)
                    break
            if child_tid is None:
                if not lanes:
                    child_tid = tid
                else:
                    child_tid = next_tid
                    next_tid += 1
                lanes.append((child_tid,
                              child.start_wall + child.duration_s))
            place(child, child_tid)

    root_lanes: list[tuple[int, float]] = []
    for root in sorted(roots, key=lambda s: s.start_wall):
        tid = None
        for i, (lane_tid, lane_end) in enumerate(root_lanes):
            if root.start_wall >= lane_end - _LANE_GRACE_S:
                tid = lane_tid
                root_lanes[i] = (lane_tid, root.start_wall + root.duration_s)
                break
        if tid is None:
            if not root_lanes:
                tid = _MAIN_TID
            else:
                tid = next_tid
                next_tid += 1
            root_lanes.append((tid, root.start_wall + root.duration_s))
        place(root, tid)
    return events, next_tid - _MAIN_TID


def _metadata_events(track_count: int) -> list[dict]:
    events = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": _MAIN_TID,
        "args": {"name": "repro"},
    }]
    for offset in range(track_count):
        tid = _MAIN_TID + offset
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": "main" if tid == _MAIN_TID
                     else f"lane-{offset}"},
        })
    return events


def _counter_events(samples) -> list[dict]:
    events = []
    for s in samples:
        ts = s.wall * 1e6
        events.append({
            "name": "rss_mb", "cat": "resources", "ph": "C",
            "ts": ts, "pid": _PID,
            "args": {"rss_mb": round(s.rss_bytes / 1e6, 3)},
        })
        events.append({
            "name": "cpu_s", "cat": "resources", "ph": "C",
            "ts": ts, "pid": _PID, "args": {"cpu_s": round(s.cpu_s, 4)},
        })
        events.append({
            "name": "threads", "cat": "resources", "ph": "C",
            "ts": ts, "pid": _PID, "args": {"threads": s.threads},
        })
    return events


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):
        return value.item()
    return str(value)


# ---------------------------------------------------------------------- #
# Public API
# ---------------------------------------------------------------------- #
def trace_events(roots: Iterable[Span], samples=None) -> list[dict]:
    """The full event list (metadata + spans + optional resource
    counter tracks)."""
    span_events, track_count = _span_events(roots)
    events = _metadata_events(max(1, track_count)) + span_events
    if samples:
        events += _counter_events(samples)
    return events


def write_chrome_trace(file: str | IO[str], roots: Iterable[Span],
                       samples=None) -> int:
    """Write a ``trace_event`` JSON document; returns the event count.

    ``file`` is a path or an open text handle.  ``samples`` is an
    optional :class:`~repro.observe.sampler.ResourceSampler` timeseries
    rendered as counter tracks.
    """
    events = trace_events(roots, samples=samples)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.observe"},
    }
    own = isinstance(file, str)
    fh: IO[str] = open(file, "w") if own else file  # noqa: SIM115
    try:
        json.dump(document, fh)
        fh.write("\n")
    finally:
        if own:
            fh.close()
    return len(events)


def write_trace(path: str, roots: Iterable[Span], samples=None) -> int:
    """Write a trace file whose format its name selects.

    ``*.jsonl`` gets the flat span-per-line JSONL (returns the span
    count); any other name gets the Chrome/Perfetto ``trace_event``
    document (returns the event count).  ``samples`` only has a place
    in the Chrome form.
    """
    if str(path).endswith(".jsonl"):
        return write_jsonl(roots, str(path))
    return write_chrome_trace(str(path), roots, samples=samples)
