"""Counters, gauges, histograms and the registry summary."""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        telemetry.enable()
        telemetry.count("hits")
        telemetry.count("hits", 4)
        assert telemetry.registry.counter("hits").value == 5

    def test_gauge_last_value_wins(self):
        telemetry.enable()
        telemetry.gauge("speed", 10.0)
        telemetry.gauge("speed", 3.5)
        assert telemetry.registry.gauge("speed").value == 3.5

    def test_histogram_summary(self):
        telemetry.enable()
        for v in (1.0, 2.0, 3.0, 4.0):
            telemetry.observe("lat", v)
        h = telemetry.registry.histogram("lat")
        s = h.summary()
        assert s["count"] == 4
        assert s["total"] == 10.0
        assert s["mean"] == 2.5
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert s["p50"] == pytest.approx(3.0, rel=h.rel_error)

    def test_empty_histogram_percentile(self):
        r = MetricsRegistry()
        assert r.histogram("x").percentile(95) == 0.0
        assert r.histogram("x").summary() == {"count": 0}

    @pytest.mark.parametrize("value", [3.7e-4, 1.0, 42.5, 0.0])
    def test_one_observation_summary_is_exact(self, value):
        """Percentiles clamp to [min, max]: a one-sample histogram (a
        bench's one wall time) reports that sample, not a bin midpoint."""
        h = MetricsRegistry().histogram("once")
        h.observe(value)
        s = h.summary()
        assert s["count"] == 1
        assert s["total"] == s["mean"] == s["min"] == s["max"] == value
        assert s["p50"] == s["p95"] == s["p99"] == value


class TestHistogramAccuracy:
    """The quantile-estimator contract of the one histogram type."""

    def test_quantiles_match_numpy_within_bin_error(self):
        """Seeded stream: every quantile lands within the histogram's
        declared relative error of exact numpy.percentile."""
        rng = np.random.default_rng(42)
        hist = Histogram(lo=1e-3, hi=1e6, rel_error=0.04)
        values = rng.lognormal(mean=1.0, sigma=1.2, size=20_000)
        for value in values:
            hist.observe(value)
        for q in (10, 50, 90, 95, 99, 99.9):
            exact = float(np.percentile(values, q))
            assert hist.percentile(q) == pytest.approx(exact, rel=0.05), \
                f"p{q}"

    @pytest.mark.parametrize("sigma", [0.3, 2.0], ids=["0.3", "2.0"])
    def test_quantiles_match_numpy(self, sigma):
        rng = np.random.default_rng(7)
        hist = Histogram(lo=1e-3, hi=1e6, rel_error=0.04)
        values = rng.lognormal(mean=0.0, sigma=sigma, size=10_000)
        for value in values:
            hist.observe(value)
        for q in (50, 95, 99):
            exact = float(np.percentile(values, q))
            assert hist.percentile(q) == pytest.approx(exact, rel=0.05)

    def test_fixed_memory_under_1m_sample_soak(self):
        """One million observations allocate nothing: bin storage is
        identical before and after, and exact stats stay exact."""
        rng = np.random.default_rng(3)
        hist = Histogram(lo=1e-3, hi=1e6, rel_error=0.04)
        nbytes_before = hist.nbytes
        values = rng.exponential(scale=50.0, size=1_000_000) + 1e-3
        for value in values:
            hist.observe(value)
        assert hist.nbytes == nbytes_before
        assert hist.count == 1_000_000
        assert hist.min == pytest.approx(float(values.min()))
        assert hist.max == pytest.approx(float(values.max()))
        assert hist.sum == pytest.approx(float(values.sum()), rel=1e-9)
        assert hist.percentile(99) == pytest.approx(
            float(np.percentile(values, 99)), rel=0.05)

    def test_clamping_outside_range(self):
        hist = Histogram(lo=1.0, hi=100.0)
        hist.observe(1e-9)
        hist.observe(1e9)
        assert hist.count == 2
        # Clamped to the end bins, not dropped or crashed.
        assert hist.percentile(0) == pytest.approx(1.0, rel=0.1)
        assert hist.percentile(100) >= 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(lo=0.0)
        with pytest.raises(ValueError):
            Histogram(lo=10.0, hi=1.0)
        with pytest.raises(ValueError):
            Histogram(rel_error=1.5)


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        r = MetricsRegistry()
        assert r.empty
        r.counter("a").inc()
        r.gauge("b").set(1.0)
        r.histogram("c").observe(2.0)
        assert not r.empty
        assert set(r.counters) == {"a"}

    def test_summary_is_flat_and_sorted(self):
        r = MetricsRegistry()
        r.counter("z.count").inc(2)
        r.counter("a.count").inc(1)
        r.gauge("m.gauge").set(0.5)
        r.histogram("h.hist").observe(1.0)
        s = r.summary()
        assert list(s)[:2] == ["a.count", "z.count"]
        assert s["z.count"] == 2
        assert s["m.gauge"] == 0.5
        assert s["h.hist"]["count"] == 1

    def test_reset_clears_everything(self):
        r = MetricsRegistry()
        r.counter("a").inc()
        r.reset()
        assert r.empty


class TestHistogramTransport:
    """``snapshot_data``/``merge_data`` ship bins, not raw values."""

    @staticmethod
    def _values(n, seed):
        # Multiples of 1/64: every partial sum is exact in a float, so
        # the merged and the single-registry sums can match bit for bit.
        rng = np.random.default_rng(seed)
        return np.round(rng.lognormal(0.0, 1.5, size=n) * 64) / 64 + 1 / 64

    def test_merge_equals_observing_everything_once(self):
        a_values, b_values = self._values(3000, 1), self._values(2000, 2)
        a, b, whole = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for v in a_values:
            a.histogram("lat").observe(v)
        for v in b_values:
            b.histogram("lat").observe(v)
        for v in np.concatenate([a_values, b_values]):
            whole.histogram("lat").observe(v)
        merged = MetricsRegistry()
        merged.merge_data(a.snapshot_data())
        merged.merge_data(b.snapshot_data())
        got, want = merged.histogram("lat"), whole.histogram("lat")
        assert (got.count, got.sum, got.min, got.max) == \
            (want.count, want.sum, want.min, want.max)
        for q in (0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 100):
            assert got.percentile(q) == want.percentile(q), f"p{q}"
        assert got.summary() == want.summary()

    def test_snapshot_payload_has_fixed_size(self):
        def payload(n):
            r = MetricsRegistry()
            for v in self._values(n, 3):
                r.histogram("lat").observe(v)
            return pickle.dumps(r.snapshot_data())

        assert len(payload(10)) == len(payload(100_000))

    def test_concurrent_observe_and_merge_lose_nothing(self):
        """Observers and pool-drain merges race to create and then
        share one histogram; neither the registry nor the histogram's
        lock may drop an instrument, a count or a bin."""
        r = MetricsRegistry()
        shipped = MetricsRegistry()
        for v in self._values(500, 4):
            shipped.histogram("lat").observe(v)
        state = shipped.snapshot_data()
        values = self._values(2000, 5)

        def observe():
            for v in values:
                r.histogram("lat").observe(v)

        def merge():
            for _ in range(20):
                r.merge_data(state)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fn)
                       for fn in (observe, observe, observe, merge, merge)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        h = r.histogram("lat")
        assert h.count == 3 * 2000 + 2 * 20 * 500
        assert int(h.state()["bins"].sum()) == h.count
