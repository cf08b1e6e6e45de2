"""repro.observe: deep observability on top of :mod:`repro.telemetry`.

Telemetry answers "how long did each stage take"; this package
answers the two questions that layer cannot:

* **What did the run cost?**  :mod:`repro.observe.sampler` -- a
  background thread sampling ``/proc/self`` (RSS, CPU, threads, FDs)
  into a bounded timeseries whose peaks fold into every
  :class:`~repro.provenance.records.RunRecord`.
* **Where does wall-clock go, visually?**
  :mod:`repro.observe.perfetto` -- the span tree (worker subtrees
  included) exported as Chrome/Perfetto ``trace_event`` JSON that
  opens in ``ui.perfetto.dev``.

``repro profile <experiment>`` (:mod:`repro.observe.profile`) runs both
at once and prints a self-time attribution table; under ``--jobs N``
the merged worker spans show the time of every fanned-out item.

The *live* layer serves long-running sessions (:mod:`repro.serve`):
:mod:`repro.observe.live` provides :class:`LiveMetrics`, the serving
session's one store of counts -- a fixed-memory rolling counter per
``serve.*`` outcome (cumulative total plus windowed rate) and
rolling histograms of latency, queue depth, batch size and event-loop
lag -- the per-request :class:`TraceContext` span trees the service
tail-samples into Perfetto exports, and the ``repro top`` dashboard
rendering; :mod:`repro.observe.slo` grades the session's latency and
error counts by burn rate into the PASS/WARN/FAIL verdicts the
``kind="serve"`` session records and ``repro report --strict`` carry.

Everything is stdlib-only and off by default, matching the telemetry
layer's one-branch-when-disabled discipline.
"""

from __future__ import annotations

from repro.observe import slo
from repro.observe.live import (
    LiveMetrics,
    RollingCounter,
    RollingHistogram,
    TraceContext,
    render_top,
)
from repro.observe.perfetto import (
    counter_track_events,
    trace_events,
    write_chrome_trace,
    write_trace,
)
from repro.observe.profile import (
    ProfileResult,
    run_profile,
    self_time_rows,
    self_time_table,
)
from repro.observe.sampler import (
    ResourceSample,
    ResourceSampler,
    read_sample,
)

__all__ = [
    "LiveMetrics",
    "ProfileResult",
    "ResourceSample",
    "ResourceSampler",
    "RollingCounter",
    "RollingHistogram",
    "TraceContext",
    "counter_track_events",
    "read_sample",
    "render_top",
    "run_profile",
    "self_time_rows",
    "self_time_table",
    "slo",
    "trace_events",
    "write_chrome_trace",
    "write_trace",
]
