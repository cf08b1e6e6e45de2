"""Telemetry must survive a worker dying mid-``map``.

A hard-killed process worker (``tests/assault``'s :class:`WorkerAssassin`,
the stand-in for an OOM kill) takes its chunk's telemetry snapshot down
with it.  The contract under that loss: surviving workers' snapshots
still merge under the call-site span, the in-parent retry of the dead
chunk records its telemetry in-process, and the final trace/metrics
account for every item exactly once -- the call-site span is never
dropped or orphaned.
"""

from __future__ import annotations

import os

import pytest

from repro import telemetry
from repro.runtime import get_executor
from tests.assault.chaos import WorkerAssassin


def _traced_square(x):
    """Module-level so it pickles; one span + one count per item."""
    with telemetry.span("task.item", item=x):
        telemetry.count("task.items")
    return x * x


def _span_names(span):
    yield span.name
    for child in span.children:
        yield from _span_names(child)


@pytest.mark.parametrize("kill_items", [{3}, {2, 5}])
def test_worker_death_partial_snapshots_merge_cleanly(kill_items):
    ex = get_executor(2)

    telemetry.enable()
    assassin = WorkerAssassin(_traced_square, kill_items, os.getpid())
    items = list(range(8))
    with telemetry.span("call_site") as call_site:
        results = ex.map(assassin, items)

    # The fan-out itself recovered (chunk retry ran in the parent).
    assert results == [i * i for i in items]

    # The call-site span survived the carnage and closed cleanly.
    roots = telemetry.tracer.roots
    assert call_site in roots
    assert call_site.duration_s > 0.0

    # Every item's telemetry arrived exactly once: survivors via merged
    # worker snapshots, the killed chunk via the in-parent retry.  The
    # dead worker's partial snapshot must not double- or under-count.
    assert telemetry.registry.counter("task.items").value == len(items)

    # Worker spans hang under the call-site span -- merged snapshots
    # anchor to the span active at merge time, retried items nest via
    # the thread-local stack.  Either way: children, never new roots.
    item_spans = [n for n in _span_names(call_site) if n == "task.item"]
    assert len(item_spans) == len(items)
    orphan_roots = [r for r in roots if r is not call_site]
    assert not any("task.item" in _span_names(r) for r in orphan_roots)


def test_worker_death_metrics_snapshot_roundtrip():
    """The registry-level merge is lossless for the surviving data."""
    telemetry.enable()
    telemetry.count("task.items", 3)
    telemetry.registry.histogram("task.wall_s").observe(0.25)
    snap = telemetry.registry.snapshot_data()

    telemetry.reset()
    telemetry.count("task.items", 5)  # parent-side retries
    telemetry.registry.merge_data(snap)

    assert telemetry.registry.counter("task.items").value == 8
    assert telemetry.registry.histogram("task.wall_s").count == 1
