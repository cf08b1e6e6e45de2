"""Live observability of the serving layer, end to end.

Pins the tentpole contracts: the in-band ``{"op": "stats"}`` snapshot,
the tail-sampled per-request span chain (queue -> batch -> predict ->
write), the SLO burn-rate verdict on the session record, the Perfetto
export of a serving session, and the ``repro top`` / ``repro report``
surfaces on top of all of it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serve import (
    ModelRegistry,
    ServeClient,
    ServeConfig,
    ServerThread,
)

N_QUBITS = 3


def _sampled(handle, n, timeout_s=2.0):
    """The server's tail-sample buffer once it holds ``n`` traces.

    The trace finishes *after* the response write, so a client can see
    its reply a beat before the sample lands -- poll briefly.
    """
    import time as _time

    deadline = _time.monotonic() + timeout_s
    while _time.monotonic() < deadline:
        traces = handle.server.sampled_traces
        if len(traces) >= n:
            return traces
        _time.sleep(0.005)
    return handle.server.sampled_traces


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry.calibrated(
        n_qubits=N_QUBITS, n_calibration_shots=64, seed=5)


@pytest.fixture()
def points():
    rng = np.random.default_rng(17)
    return rng.normal(size=(48, 2))


# ---------------------------------------------------------------------- #
# The in-band stats op
# ---------------------------------------------------------------------- #
class TestStatsOp:
    def test_snapshot_shape_and_counts(self, registry, points):
        with ServerThread(registry, ServeConfig(batch_window_ms=1.0)) \
                as handle:
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(3):
                    client.classify("knn", points)
                snap = client.stats()
        assert snap["endpoint"] == f"{handle.host}:{handle.port}"
        assert snap["models"] == registry.digests()
        assert snap["counters"]["serve.requests"] == 3
        assert snap["counters"]["serve.shots"] == 3 * len(points)
        assert snap["counters"]["serve.stats_scrapes"] == 1
        assert snap["window"]["requests"] == 3
        assert snap["window"]["latency_p50_ms"] > 0
        assert snap["slo"]["verdict"] == "PASS"
        assert [c["name"] for c in snap["slo"]["checks"]] == \
            ["latency", "errors"]
        assert snap["inflight"] == 0
        assert snap["max_queue"] == 64

    def test_mixed_outcomes_are_counted_once(self, registry, points):
        """2 served, one 429, one 408, one 400, one 404 and a scrape in
        one session: the window, the SLO total, the counters and the
        session record all read the same store."""
        import threading
        import time as _time

        from repro.errors import (
            DeadlineError,
            ServeOverloadError,
            ServeProtocolError,
        )
        model = registry.get("knn")
        base = model.predict

        def slow_predict(iq, qubit=None):
            _time.sleep(0.5)
            return base(iq, qubit=qubit)

        model.predict = slow_predict
        try:
            config = ServeConfig(max_queue=1, batch_window_ms=1.0,
                                 default_deadline_ms=10_000.0)
            with ServerThread(ModelRegistry({"knn": model}), config) \
                    as handle, ServeClient(handle.host, handle.port) \
                    as client:
                def hold():
                    with ServeClient(handle.host, handle.port) as other:
                        other.classify("knn", points)

                holder = threading.Thread(target=hold)
                holder.start()
                deadline = _time.monotonic() + 5.0
                while (_time.monotonic() < deadline
                       and handle.server._inflight < 1):
                    _time.sleep(0.005)
                with pytest.raises(ServeOverloadError):
                    client.classify("knn", points)
                holder.join(timeout=10)
                assert not holder.is_alive()
                client.classify("knn", points)
                with pytest.raises(DeadlineError):
                    client.classify("knn", points, deadline_ms=1e-6)
                with pytest.raises(ServeProtocolError) as err:
                    client.classify("nope", points)
                assert err.value.code == 404
                with pytest.raises(ServeProtocolError) as err:
                    client.classify("knn", points[:, :1])
                assert err.value.code == 400
                snap = client.stats()
            record = handle.record
        finally:
            model.predict = base

        c = snap["counters"]
        assert (c["serve.requests"], c["serve.rejected"],
                c["serve.deadline_expired"], c["serve.bad_requests"],
                c["serve.unknown_model"], c["serve.internal_errors"],
                c["serve.stats_scrapes"]) == (2, 1, 1, 1, 1, 0, 1)
        traffic = (c["serve.requests"] + c["serve.rejected"]
                   + c["serve.deadline_expired"]
                   + c["serve.internal_errors"])
        assert snap["window"]["requests"] == snap["slo"]["total"] \
            == traffic == 4
        assert snap["window"]["errors"] == 1
        assert snap["window"]["rejected"] == 1
        assert {k: record.metrics[k] for k in c} == c
        assert record.metrics["serve.batches"] \
            == handle.server.live.batch_requests.count == 2

    def test_scrape_does_not_count_as_traffic(self, registry):
        with ServerThread(registry, ServeConfig()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(4):
                    client.stats()
                snap = client.stats()
        assert snap["counters"]["serve.requests"] == 0
        assert snap["counters"]["serve.stats_scrapes"] == 5
        assert snap["slo"]["total"] == 0
        # Scrapes never land in the latency histogram either.
        assert snap["window"]["latency_p50_ms"] == 0.0

    def test_scrape_answers_with_queue_full(self, registry, points):
        """Admission cannot reject a scrape: with every queue slot
        held by in-flight requests, stats still answers immediately."""
        import threading
        import time as _time

        model = registry.get("knn")
        base = model.predict

        def slow_predict(iq, qubit=None):
            _time.sleep(0.3)
            return base(iq, qubit=qubit)

        model.predict = slow_predict
        try:
            config = ServeConfig(max_queue=2, batch_window_ms=1.0,
                                 default_deadline_ms=10_000.0)
            with ServerThread(ModelRegistry({"knn": model}), config) \
                    as handle:
                holders = [
                    threading.Thread(
                        target=lambda: ServeClient(
                            handle.host, handle.port).request(
                                "knn", points))
                    for _ in range(2)
                ]
                for t in holders:
                    t.start()
                deadline = _time.monotonic() + 5.0
                while (_time.monotonic() < deadline
                       and handle.server._inflight < 2):
                    _time.sleep(0.005)
                t0 = _time.perf_counter()
                with ServeClient(handle.host, handle.port) as client:
                    snap = client.stats()
                scrape_s = _time.perf_counter() - t0
                for t in holders:
                    t.join(timeout=10)
            assert snap["inflight"] >= 1
            assert scrape_s < 1.0
            assert snap["counters"]["serve.rejected"] == 0
        finally:
            model.predict = base

    def test_unknown_op_is_a_400(self, registry):
        from repro.errors import ServeProtocolError
        from repro.serve.protocol import encode_op_request

        with ServerThread(registry, ServeConfig()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client._file.write(encode_op_request("reboot", req_id=1))
                client._file.flush()
                doc = client._read_response()
                assert doc["code"] == 400
                assert doc["field"] == "op"
                with pytest.raises(ServeProtocolError):
                    from repro.serve.protocol import raise_for_response
                    raise_for_response(doc)
                # The connection survives the bad op.
                assert client.stats()["counters"]["serve.bad_requests"] \
                    == 1


# ---------------------------------------------------------------------- #
# Tail-sampled request traces
# ---------------------------------------------------------------------- #
class TestTailSampling:
    def test_slow_request_keeps_full_span_chain(self, registry, points):
        """A latency objective ~ 0 samples everything: each kept tree
        carries the queue -> batch -> predict -> write chain in order."""
        config = ServeConfig(batch_window_ms=1.0, slo_latency_ms=1e-6)
        with ServerThread(registry, config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.classify("knn", points)
            traces = _sampled(handle, 1)
        assert len(traces) == 1
        root = traces[0]
        assert root.name == "serve.request"
        assert root.attrs["status"] == "ok"
        assert root.attrs["model"] == "knn"
        assert root.attrs["latency_ms"] > 0
        names = [c.name for c in root.children]
        assert names == ["serve.queue", "serve.batch", "serve.predict",
                         "serve.write"]
        predict = root.children[2]
        assert predict.attrs["shots"] == len(points)
        assert predict.duration_s > 0
        # Children are time-ordered and inside the request window.
        walls = [c.start_wall for c in root.children]
        assert walls == sorted(walls)

    def test_fast_requests_are_not_sampled(self, registry, points):
        import time as _time

        config = ServeConfig(batch_window_ms=1.0, slo_latency_ms=60_000.0)
        with ServerThread(registry, config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(5):
                    client.classify("knn", points)
            _time.sleep(0.05)  # let any pending finishers run
            assert handle.server.sampled_traces == []

    def test_failed_requests_are_always_sampled(self, registry, points):
        from repro.errors import DeadlineError

        config = ServeConfig(batch_window_ms=1.0, slo_latency_ms=60_000.0)
        with ServerThread(registry, config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                with pytest.raises(DeadlineError):
                    client.classify("knn", points, deadline_ms=1e-6)
            traces = _sampled(handle, 1)
        assert len(traces) == 1
        assert traces[0].attrs["status"] == "error"
        assert traces[0].attrs["code"] == 408

    def test_sample_buffer_is_bounded(self, registry, points):
        from repro.serve.server import TRACE_CAPACITY

        config = ServeConfig(batch_window_ms=1.0, slo_latency_ms=1e-6)
        with ServerThread(registry, config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(TRACE_CAPACITY + 6):
                    client.classify("knn", points)
            traces = _sampled(handle, TRACE_CAPACITY)
            assert len(traces) == TRACE_CAPACITY

    def test_sampled_trace_exports_to_perfetto(self, registry, points,
                                               tmp_path):
        from repro.observe import write_chrome_trace

        config = ServeConfig(batch_window_ms=1.0, slo_latency_ms=1e-6)
        with ServerThread(registry, config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.classify("knn", points)
            roots = _sampled(handle, 1)
            counters = handle.server.counter_timeline()
        path = tmp_path / "serve_trace.json"
        write_chrome_trace(str(path), roots, counters=counters)
        doc = json.loads(path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"serve.request", "serve.queue", "serve.batch",
                "serve.predict", "serve.write"} <= names


# ---------------------------------------------------------------------- #
# SLO on the session record
# ---------------------------------------------------------------------- #
class TestSessionSLO:
    def test_clean_session_passes(self, registry, points, tmp_path):
        from repro.provenance import RunLedger

        ledger = RunLedger(tmp_path / "runs")
        with ServerThread(registry, ServeConfig(batch_window_ms=1.0),
                          ledger=ledger) as handle:
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(4):
                    client.classify("knn", points)
        record = handle.record
        assert record.verdict == "PASS"
        assert record.fidelity["kind"] == "slo"
        assert record.metrics["serve.slo_latency_burn_rate"] == 0.0
        assert record.metrics["serve.slo_errors_burn_rate"] == 0.0
        # The satellite histograms landed in the record.
        assert record.metrics["serve.queue_depth_max"] >= 1
        assert record.metrics["serve.batch_shots_max"] >= len(points)
        assert record.metrics["serve.batch_requests_p50"] >= 1
        assert record.telemetry["slo"]["spec"]["latency_ms"] == 110.0
        # And round-trips through the ledger.
        stored = ledger.records(kind="serve")[0]
        assert stored.verdict == "PASS"

    def test_burned_session_fails(self, registry, points):
        """Every request misses a ~0 latency target: burn far past
        FAST_BURN, the session verdict is FAIL."""
        config = ServeConfig(batch_window_ms=1.0, slo_latency_ms=1e-6)
        with ServerThread(registry, config) as handle:
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(3):
                    client.classify("knn", points)
        record = handle.record
        assert record.verdict == "FAIL"
        checks = {c["name"]: c for c in record.fidelity["checks"]}
        assert checks["latency"]["status"] == "FAIL"
        assert checks["latency"]["bad"] == 3
        assert checks["errors"]["status"] == "PASS"
        assert record.metrics["serve.slo_latency_violations"] == 3

    def test_deadline_errors_burn_error_budget(self, registry, points):
        from repro.errors import DeadlineError

        with ServerThread(registry, ServeConfig(batch_window_ms=1.0)) \
                as handle:
            with ServeClient(handle.host, handle.port) as client:
                with pytest.raises(DeadlineError):
                    client.classify("knn", points, deadline_ms=1e-6)
        checks = {c["name"]: c
                  for c in handle.record.fidelity["checks"]}
        assert checks["errors"]["bad"] == 1
        assert checks["errors"]["status"] == "FAIL"  # 1/1 over 1% budget

    def test_rejections_do_not_burn_error_budget(self, registry, points):
        """429 back-pressure is the overload contract working: it counts
        as traffic but never as an SLO error."""
        import threading
        import time as _time

        model = registry.get("knn")
        base = model.predict

        def slow_predict(iq, qubit=None):
            _time.sleep(0.05)
            return base(iq, qubit=qubit)

        model.predict = slow_predict
        try:
            config = ServeConfig(max_queue=1, batch_window_ms=1.0,
                                 default_deadline_ms=10_000.0)
            with ServerThread(ModelRegistry({"knn": model}), config) \
                    as handle:
                threads = [
                    threading.Thread(target=lambda: ServeClient(
                        handle.host, handle.port).request("knn", points))
                    for _ in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=20)
            record = handle.record
            assert record.metrics["serve.rejected"] > 0
            checks = {c["name"]: c
                      for c in record.fidelity["checks"]}
            # Rejections inflate the denominator only.
            assert checks["errors"]["bad"] == 0
            assert record.fidelity["total"] == \
                record.metrics["serve.requests"] \
                + record.metrics["serve.rejected"]
        finally:
            model.predict = base


# ---------------------------------------------------------------------- #
# Health probe + CLI surfaces
# ---------------------------------------------------------------------- #
class TestObserverAndCLI:
    def test_observer_task_measures_loop_lag(self, registry):
        import time as _time

        with ServerThread(registry, ServeConfig()) as handle:
            _time.sleep(0.7)  # a few 0.25 s observer ticks
            with ServeClient(handle.host, handle.port) as client:
                snap = client.stats()
            timeline = handle.server.counter_timeline()
        health = snap["health"]
        assert health["ticks"] >= 1
        assert set(health) == {"ticks", "loop_lag_p99_ms",
                               "loop_lag_max_ms", "sampled_traces"}
        assert health["loop_lag_max_ms"] >= health["loop_lag_p99_ms"] >= 0
        assert timeline, "observer recorded no counter points"
        wall, values = timeline[-1]
        assert {"inflight", "requests_per_sec",
                "latency_p99_ms"} <= set(values)

    def test_repro_top_renders_live_server(self, registry, points,
                                           capsys):
        from repro.__main__ import main

        with ServerThread(registry, ServeConfig(batch_window_ms=1.0)) \
                as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.classify("knn", points)
            code = main(["top", f"{handle.host}:{handle.port}",
                         "--count", "2", "--interval", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"{handle.host}:{handle.port}" in out
        assert "SLO [PASS]" in out
        assert "req/s" in out
        assert out.count("repro serve") == 2  # two frames

    def test_repro_top_rejects_bad_target(self, capsys):
        from repro.__main__ import main

        assert main(["top", "no-port-here"]) == 2

    def test_report_gates_on_slo_burn(self, registry, points, tmp_path,
                                      capsys):
        """A burned serve session drives `repro report --strict` to a
        non-zero exit -- the CI fidelity gate covers SLO verdicts."""
        from repro.__main__ import main
        from repro.provenance import RunLedger

        runs = tmp_path / "runs"
        config = ServeConfig(batch_window_ms=1.0, slo_latency_ms=1e-6)
        with ServerThread(registry, config, ledger=RunLedger(runs)) \
                as handle:
            with ServeClient(handle.host, handle.port) as client:
                client.classify("knn", points)
        code = main(["report", "--runs-dir", str(runs), "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Serving SLO" in out
        assert "FAIL" in out
