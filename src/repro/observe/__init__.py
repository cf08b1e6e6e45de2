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

Everything is stdlib-only and off by default, matching the telemetry
layer's one-branch-when-disabled discipline.
"""

from __future__ import annotations

from repro.observe.perfetto import (
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
    "ProfileResult",
    "ResourceSample",
    "ResourceSampler",
    "read_sample",
    "run_profile",
    "self_time_rows",
    "self_time_table",
    "trace_events",
    "write_chrome_trace",
    "write_trace",
]
