"""Rolling-window metrics + request tracing (repro.observe.live)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.observe.live import (
    LiveMetrics,
    RollingCounter,
    RollingHistogram,
    TraceContext,
    render_top,
)
from repro.telemetry import Histogram

T0 = 1_000_000.0  # deterministic "now" base for injected clocks


# ---------------------------------------------------------------------- #
# RollingCounter
# ---------------------------------------------------------------------- #
class TestRollingCounter:
    def test_windowed_rate(self):
        counter = RollingCounter(window_s=10.0, slots=10)
        for i in range(50):
            counter.add(2, now=T0 + i * 0.1)  # 100 events over 5 s
        now = T0 + 4.9
        assert counter.total == 100
        assert counter.window_count(now) == 100
        assert counter.rate(now) == pytest.approx(10.0)

    def test_old_slots_expire(self):
        counter = RollingCounter(window_s=10.0, slots=10)
        counter.add(100, now=T0)
        assert counter.window_count(T0) == 100
        # 11 s later the slot is outside the window; total survives.
        assert counter.window_count(T0 + 11.0) == 0
        assert counter.total == 100

    def test_slot_recycling_resets_stale_counts(self):
        counter = RollingCounter(window_s=1.0, slots=2)
        counter.add(5, now=T0)
        counter.add(7, now=T0 + 1.0)  # same ring index, new slot number
        assert counter.window_count(T0 + 1.0) == 7
        assert counter.total == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingCounter(window_s=0.0)
        with pytest.raises(ValueError):
            RollingCounter(slots=0)


# ---------------------------------------------------------------------- #
# RollingHistogram: the quantile-estimator contract.  The numpy-quantile
# and soak tests also cover its base class, telemetry's Histogram.
# ---------------------------------------------------------------------- #
def _histogram(kind, window_s=10.0, slots=10):
    if kind == "telemetry":
        return Histogram(lo=1e-3, hi=1e6, rel_error=0.04)
    return RollingHistogram(lo=1e-3, hi=1e6, rel_error=0.04,
                            window_s=window_s, slots=slots)


def _observe(hist, value, now):
    if isinstance(hist, RollingHistogram):
        hist.observe(value, now=now)
    else:
        hist.observe(value)


def _cumulative(hist, q):
    if isinstance(hist, RollingHistogram):
        return hist.cumulative_percentile(q)
    return hist.percentile(q)


KINDS = ["rolling", "telemetry"]


class TestRollingHistogram:
    @pytest.mark.parametrize("kind", KINDS)
    def test_quantiles_match_numpy_within_bin_error(self, kind):
        """Seeded stream: every windowed quantile lands within the
        histogram's declared relative error of exact numpy.percentile."""
        rng = np.random.default_rng(42)
        hist = _histogram(kind)
        values = rng.lognormal(mean=1.0, sigma=1.2, size=20_000)
        now = T0
        for value in values:
            _observe(hist, value, now)
        for q in (10, 50, 90, 95, 99, 99.9):
            exact = float(np.percentile(values, q))
            if kind == "telemetry":
                approx = hist.percentile(q)
            else:
                approx = hist.percentile(q, now=now)
            assert approx == pytest.approx(exact, rel=0.05), f"p{q}"

    # The rolling cases keep their historical ids.
    @pytest.mark.parametrize("kind,sigma", [
        ("rolling", 0.3), ("rolling", 2.0),
        ("telemetry", 0.3), ("telemetry", 2.0),
    ], ids=["0.3", "2.0", "telemetry-0.3", "telemetry-2.0"])
    def test_cumulative_quantiles_match_numpy(self, kind, sigma):
        rng = np.random.default_rng(7)
        hist = _histogram(kind)
        values = rng.lognormal(mean=0.0, sigma=sigma, size=10_000)
        for i, value in enumerate(values):
            # Spread over minutes: the *cumulative* view must still see
            # everything even after the rolling window forgot it.
            _observe(hist, value, T0 + i * 0.01)
        for q in (50, 95, 99):
            exact = float(np.percentile(values, q))
            assert _cumulative(hist, q) == pytest.approx(exact, rel=0.05)

    def test_window_expiry(self):
        hist = RollingHistogram(window_s=10.0, slots=10)
        hist.observe(100.0, now=T0)
        assert hist.percentile(50, now=T0) == pytest.approx(100.0,
                                                            rel=0.05)
        assert hist.window_count(T0) == 1
        # Outside the window: gone from the live view...
        assert hist.window_count(T0 + 10.5) == 0
        assert hist.percentile(50, now=T0 + 10.5) == 0.0
        # ...but never from the cumulative one.
        assert hist.count == 1
        assert hist.cumulative_percentile(50) == pytest.approx(100.0,
                                                               rel=0.05)

    def test_mixed_window_only_counts_live_slots(self):
        hist = RollingHistogram(window_s=10.0, slots=10)
        hist.observe(1.0, now=T0)          # will expire
        hist.observe(1000.0, now=T0 + 8.0)  # stays
        now = T0 + 12.0
        assert hist.window_count(now) == 1
        assert hist.percentile(50, now=now) == pytest.approx(1000.0,
                                                             rel=0.05)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fixed_memory_under_1m_sample_soak(self, kind):
        """One million observations allocate nothing: bin storage is
        identical before and after, and exact stats stay exact."""
        rng = np.random.default_rng(3)
        hist = _histogram(kind, window_s=1.0, slots=4)
        nbytes_before = hist.nbytes
        values = rng.exponential(scale=50.0, size=1_000_000) + 1e-3
        now = T0
        for chunk_start in range(0, len(values), 10_000):
            chunk = values[chunk_start:chunk_start + 10_000]
            for value in chunk:
                _observe(hist, value, now)
            now += 0.05  # walk time so the ring recycles many times
        assert hist.nbytes == nbytes_before
        assert hist.count == 1_000_000
        assert hist.min == pytest.approx(float(values.min()))
        assert hist.max == pytest.approx(float(values.max()))
        assert hist.sum == pytest.approx(float(values.sum()), rel=1e-9)
        assert _cumulative(hist, 99) == pytest.approx(
            float(np.percentile(values, 99)), rel=0.05)

    def test_clamping_outside_range(self):
        hist = RollingHistogram(lo=1.0, hi=100.0)
        hist.observe(1e-9, now=T0)
        hist.observe(1e9, now=T0)
        assert hist.window_count(T0) == 2
        # Clamped to the end bins, not dropped or crashed.
        assert hist.percentile(0, now=T0) == pytest.approx(1.0, rel=0.1)
        assert hist.percentile(100, now=T0) >= 100.0

    def test_empty_summary_and_percentiles(self):
        hist = RollingHistogram()
        assert hist.percentile(99) == 0.0
        assert hist.cumulative_percentile(50) == 0.0
        assert hist.summary() == {"count": 0}

    def test_summary_shape(self):
        hist = RollingHistogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value, now=T0)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert set(summary) == {"count", "total", "mean", "min", "max",
                                "p50", "p95", "p99"}

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingHistogram(lo=0.0)
        with pytest.raises(ValueError):
            RollingHistogram(lo=10.0, hi=1.0)
        with pytest.raises(ValueError):
            RollingHistogram(rel_error=1.5)


# ---------------------------------------------------------------------- #
# TraceContext
# ---------------------------------------------------------------------- #
class TestTraceContext:
    def test_span_tree_assembly(self):
        trace = TraceContext(model="knn", shots=64)
        trace.add("serve.queue", start_wall=T0, duration_s=0.002,
                  shots=64)
        with trace.span("serve.write", bytes=100):
            pass
        root = trace.finish(status="ok")
        assert root.name == "serve.request"
        assert root.attrs["model"] == "knn"
        assert root.attrs["status"] == "ok"
        assert root.attrs["trace_id"].startswith("req-")
        assert [c.name for c in root.children] == \
            ["serve.queue", "serve.write"]
        assert root.duration_s > 0

    def test_finish_is_idempotent(self):
        trace = TraceContext()
        first = trace.finish().duration_s
        assert trace.finish().duration_s == first

    def test_attach_shares_a_span_between_traces(self):
        from repro.telemetry.spans import Span

        shared = Span("serve.predict", {"requests": 2}, None)
        a, b = TraceContext(), TraceContext()
        a.attach(shared)
        b.attach(shared)
        assert a.finish().children[0] is b.finish().children[0]

    def test_detached_from_global_tracer(self):
        from repro import telemetry

        assert not telemetry.enabled()
        trace = TraceContext()
        trace.add("serve.queue", start_wall=T0, duration_s=0.001)
        root = trace.finish()
        assert len(root.children) == 1
        # Nothing leaked into the (disabled) global tracer.
        assert telemetry.trace_roots() == []

    def test_exports_through_perfetto_writer(self, tmp_path):
        import json

        from repro.observe import write_chrome_trace

        trace = TraceContext(model="knn")
        trace.add("serve.queue", start_wall=T0, duration_s=0.002)
        root = trace.finish()
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), [root],
                               counters=[(T0, {"inflight": 3})])
        doc = json.loads(path.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert "serve.request" in names
        assert "serve.queue" in names
        assert "inflight" in names
        assert n == len(doc["traceEvents"])


# ---------------------------------------------------------------------- #
# Event-loop lag: LiveMetrics.loop_lag_ms and the health summary
# ---------------------------------------------------------------------- #
class TestLagTracker:
    """Observer-tick lateness lands in the ``loop_lag_ms`` rolling
    histogram; :meth:`LiveMetrics.health` reports it."""

    def test_summary_percentiles(self):
        live = LiveMetrics()
        for lag_ms in range(1, 101):  # 1..100 ms
            live.record_loop_lag(lag_ms / 1e3, now=T0)
        s = live.health(now=T0)
        assert set(s) == {"ticks", "loop_lag_p99_ms", "loop_lag_max_ms"}
        assert s["ticks"] == 100
        assert live.loop_lag_ms.count == 100
        # Both read the window's bins: exact to within one bin.
        assert s["loop_lag_max_ms"] == pytest.approx(100.0, rel=0.05)
        assert s["loop_lag_p99_ms"] == pytest.approx(99.0, rel=0.05)

    def test_empty(self):
        assert LiveMetrics().health() == {"ticks": 0}

    def test_bounded_ring_keeps_recent(self):
        """p99 and max cover the window: old stalls age out of the
        fixed ring of slots while ``ticks`` keeps counting."""
        live = LiveMetrics(window_s=10.0)
        for _ in range(4):
            live.record_loop_lag(1.0, now=T0)
        for _ in range(4):
            live.record_loop_lag(0.001, now=T0 + 20.0)
        s = live.health(now=T0 + 20.0)
        assert s["ticks"] == 8
        assert s["loop_lag_max_ms"] == pytest.approx(1.0, rel=0.1)
        assert s["loop_lag_p99_ms"] == pytest.approx(1.0, rel=0.1)

    def test_negative_lag_clamps_to_zero(self):
        live = LiveMetrics()
        live.record_loop_lag(-0.5, now=T0)
        s = live.health(now=T0)
        assert s["ticks"] == 1
        assert s["loop_lag_max_ms"] == 0.0
        assert s["loop_lag_p99_ms"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveMetrics(window_s=0.0)


# ---------------------------------------------------------------------- #
# LiveMetrics + render_top
# ---------------------------------------------------------------------- #
class TestLiveMetrics:
    def test_snapshot_keys_and_values(self):
        live = LiveMetrics(window_s=10.0)
        now = T0
        for _ in range(10):
            live.requests.add(now=now)
            live.shots.add(1024, now=now)
            live.latency_ms.observe(5.0, now=now)
        live.queue_depth.observe(3, now=now)
        live.batch_shots.observe(4096, now=now)
        live.batch_requests.observe(4, now=now)
        snap = live.snapshot(now=now)
        assert snap["requests"] == 10
        assert snap["requests_per_sec"] == pytest.approx(1.0)
        assert snap["shots_per_sec"] == pytest.approx(1024.0)
        assert snap["latency_p50_ms"] == pytest.approx(5.0, rel=0.05)
        assert snap["queue_depth_p99"] == pytest.approx(3.0, rel=0.2)
        assert snap["batch_shots_p50"] == pytest.approx(4096, rel=0.05)

    def test_counters_and_window_sums(self):
        live = LiveMetrics(window_s=10.0)
        for name, n in (("requests", 5), ("rejected", 2),
                        ("deadline_expired", 1), ("internal_errors", 1),
                        ("bad_requests", 3), ("stats_scrapes", 4)):
            getattr(live, name).add(n, now=T0)
        counters = live.counters()
        assert list(counters) == [f"serve.{n}" for n in LiveMetrics.COUNTERS]
        assert len(counters) == 11
        assert counters["serve.requests"] == 5
        assert counters["serve.bad_requests"] == 3
        snap = live.snapshot(now=T0)
        # Traffic is served + rejected + expired + failed; 4xx client
        # mistakes and scrapes are not.
        assert snap["requests"] == 5 + 2 + 1 + 1
        assert snap["errors"] == 1 + 1
        assert snap["rejected"] == 2
        assert live.snapshot(now=T0 + 11.0)["requests"] == 0
        assert live.counters()["serve.requests"] == 5

    def test_record_summaries(self):
        live = LiveMetrics()
        for depth in (1, 2, 3):
            live.queue_depth.observe(depth, now=T0)
        live.batch_shots.observe(100, now=T0)
        live.batch_requests.observe(2, now=T0)
        out = live.record_summaries()
        assert out["serve.queue_depth_max"] == 3.0
        assert out["serve.batch_shots_max"] == 100.0
        assert out["serve.batch_requests_p50"] == pytest.approx(2.0,
                                                                rel=0.1)

    def test_record_summaries_empty(self):
        assert LiveMetrics().record_summaries() == {}


class TestRenderTop:
    def test_renders_all_sections(self):
        snapshot = {
            "endpoint": "127.0.0.1:8742",
            "uptime_s": 12.5,
            "inflight": 3,
            "max_queue": 64,
            "models": {"knn": "ab12", "hdc": "cd34"},
            "counters": {"serve.requests": 1000, "serve.shots": 64000,
                         "serve.rejected": 5, "serve.deadline_expired": 1,
                         "serve.internal_errors": 0,
                         "serve.slow_client_disconnects": 2,
                         "serve.stats_scrapes": 7},
            "window": {"window_s": 10.0, "requests_per_sec": 99.5,
                       "shots_per_sec": 6368.0, "latency_p50_ms": 2.5,
                       "latency_p95_ms": 4.0, "latency_p99_ms": 8.1,
                       "queue_depth_p99": 12.0, "batch_shots_p50": 512.0,
                       "batch_requests_p50": 8.0},
            "slo": {"verdict": "WARN", "checks": [
                {"name": "latency", "burn_rate": 1.3, "status": "WARN"},
                {"name": "errors", "burn_rate": 0.1, "status": "PASS"},
            ]},
            "health": {"loop_lag_p99_ms": 1.7},
        }
        frame = render_top(snapshot)
        assert "127.0.0.1:8742" in frame
        assert "hdc, knn" in frame
        assert "99.5 req/s" in frame
        assert "p99 8.10" in frame
        assert "depth now 3 of 64" in frame
        assert "1,000 requests" in frame
        assert "SLO [WARN]" in frame
        assert "latency burn 1.30x WARN" in frame
        assert "loop lag p99 1.70 ms" in frame
        assert "7 scrapes" in frame

    def test_renders_empty_snapshot(self):
        frame = render_top({}, endpoint="x:1")
        assert "x:1" in frame  # never crashes on missing sections
