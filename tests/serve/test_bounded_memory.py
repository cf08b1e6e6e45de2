"""A long serving session holds bounded memory.

Each request is recorded once, in the fixed-memory live histograms, so
after a warm-up the per-request bookkeeping stops growing: no latency
list, no per-request root span on the global tracer.  The probe takes a
``tracemalloc`` snapshot of allocations made by ``repro`` code around a
thousand pipelined requests and bounds what they leave behind, with
telemetry off and on.
"""

from __future__ import annotations

import gc
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro import telemetry
from repro.serve import ModelRegistry, ServeClient, ServeConfig, ServerThread

WARM_REQUESTS = 400
PROBE_REQUESTS = 1000
BURST = 8
#: Retained-growth budget for the probe.  The bounded ring that is
#: still filling (the observer's counter timeline) takes a few KB; a
#: per-request record of 16 bytes or more would exceed it.
GROWTH_BOUND_BYTES = 16 * 1024
_REPRO_FILES = tracemalloc.Filter(True, os.path.join("*", "repro", "*"))


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry.calibrated(
        n_qubits=3, n_calibration_shots=64, seed=5)


@pytest.fixture()
def telemetry_state(request):
    telemetry.disable()
    telemetry.reset()
    if request.param:
        telemetry.enable()
    yield request.param
    telemetry.disable()
    telemetry.reset()


def _drive(client: ServeClient, points: np.ndarray, n: int) -> None:
    for _ in range(n // BURST):
        docs = client.pipeline([
            {"model": "knn" if i % 2 == 0 else "hdc", "iq": points}
            for i in range(BURST)])
        assert all(doc.get("ok") for doc in docs)


def _repro_bytes() -> int:
    """Live traced bytes allocated by ``repro`` code, once the server
    has finished the requests already answered and garbage is gone."""
    time.sleep(0.1)
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces([_REPRO_FILES])
    return sum(stat.size for stat in snapshot.statistics("filename"))


@pytest.mark.parametrize("telemetry_state", [False, True],
                         ids=["telemetry-off", "telemetry-on"],
                         indirect=True)
def test_retained_memory_is_bounded(registry, telemetry_state):
    points = np.random.default_rng(17).normal(size=(48, 2))
    # Slow-request traces are kept in a ring of ``TRACE_CAPACITY``
    # entries whose fill depends on machine load; a latency objective
    # no request misses keeps that ring out of the probe.
    config = ServeConfig(batch_window_ms=1.0, slo_latency_ms=1e6)
    with ServerThread(registry, config) as handle, \
            ServeClient(handle.host, handle.port) as client:
        _drive(client, points, WARM_REQUESTS)
        roots_before = len(telemetry.trace_roots())
        tracemalloc.start(1)
        try:
            before = _repro_bytes()
            _drive(client, points, PROBE_REQUESTS)
            after = _repro_bytes()
        finally:
            tracemalloc.stop()
        served = handle.server.live.requests.total
    assert served == WARM_REQUESTS + PROBE_REQUESTS
    growth = after - before
    assert growth < GROWTH_BOUND_BYTES, (
        f"{PROBE_REQUESTS} requests retained {growth} bytes")
    if telemetry_state:
        assert len(telemetry.trace_roots()) == roots_before
