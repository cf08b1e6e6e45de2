"""The serving layer's counts, end to end.

Pins the in-band ``{"op": "stats"}`` snapshot, the ``kind="serve"``
session record built from the same counts, and how ``repro report``
treats a ledger holding serve sessions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    ModelRegistry,
    ServeClient,
    ServeConfig,
    ServerThread,
)
N_QUBITS = 3

#: The session counts the stats op and the session record report.
COUNTERS = ("connections", "requests", "shots", "rejected",
            "deadline_expired", "bad_requests", "unknown_model",
            "slow_client_disconnects", "internal_errors", "stats_scrapes")


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
        assert list(snap["counters"]) == [
            f"serve.{name}" for name in COUNTERS]
        assert snap["uptime_s"] >= 0
        assert snap["inflight"] == 0
        assert snap["max_queue"] == 64

    def test_mixed_outcomes_are_counted_once(self, registry, points):
        """2 served, one 429, one 408, one 400, one 404 and a scrape in
        one session: the snapshot counters and the session record read
        the same counts."""
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
        assert c["serve.shots"] == 2 * len(points)
        assert {k: record.metrics[k] for k in c} == c
        assert record.metrics["serve.batches"] == 2

    def test_scrape_does_not_count_as_traffic(self, registry):
        with ServerThread(registry, ServeConfig()) as handle:
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(4):
                    client.stats()
                snap = client.stats()
        assert snap["counters"]["serve.requests"] == 0
        assert snap["counters"]["serve.stats_scrapes"] == 5
        # Scrapes never land in the latency histogram either.
        record = handle.record
        assert "serve.latency_p50_ms" not in record.metrics
        assert "serve.latency_p99_ms" not in record.metrics
        assert record.metrics["serve.batches"] == 0

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
            assert 1 <= snap["inflight"] <= snap["max_queue"] == 2
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
# The session record
# ---------------------------------------------------------------------- #
class TestSessionRecord:
    def test_record_holds_counts_and_latency_only(self, registry, points,
                                                  tmp_path, capsys):
        """The record's metrics are the counters, the batch tally,
        throughput and two latency quantiles; it carries no verdict,
        so ``repro report --strict`` passes and shows no serving
        table."""
        from repro.__main__ import main
        from repro.provenance import RunLedger

        runs = tmp_path / "runs"
        with ServerThread(registry, ServeConfig(batch_window_ms=1.0),
                          ledger=RunLedger(runs)) as handle:
            with ServeClient(handle.host, handle.port) as client:
                for _ in range(3):
                    client.classify("knn", points)
        record = handle.record
        assert set(record.metrics) == {
            *(f"serve.{name}" for name in COUNTERS),
            "serve.batches", "serve.shots_per_sec",
            "serve.latency_p50_ms", "serve.latency_p99_ms"}
        assert record.metrics["serve.requests"] == 3
        assert 0 < record.metrics["serve.latency_p50_ms"] \
            <= record.metrics["serve.latency_p99_ms"]
        assert record.fidelity is None
        (stored,) = RunLedger(runs).records(kind="serve")
        assert stored.metrics == record.metrics

        capsys.readouterr()
        assert main(["report", "--runs-dir", str(runs), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "Serving" not in out
        assert "SLO" not in out
