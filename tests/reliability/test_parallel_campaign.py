"""Parallel SEU campaigns: serial equivalence, caching, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.reliability import (
    CampaignConfig,
    knn_workload,
    qec_workload,
    run_campaign,
)
from repro.soc import RocketSoC
from tests.reliability.test_campaign import _looping_spec


@pytest.fixture(scope="module")
def knn_spec():
    rng = np.random.default_rng(7)
    nq = 5
    centers = rng.normal(0.0, 0.8, (nq, 2, 2))
    measurements = rng.normal(0.0, 0.8, (10 * nq, 2))
    return knn_workload(centers, measurements, nq)


@pytest.fixture(scope="module")
def config():
    return CampaignConfig(n_injections=24, seed=11)


class TestSerialParallelEquivalence:
    def test_jobs4_bit_identical_to_serial(self, knn_spec, config):
        serial = run_campaign(knn_spec, config, jobs=1)
        parallel = run_campaign(knn_spec, config, jobs=4)
        assert parallel.bucket_signature() == serial.bucket_signature()
        assert parallel.counts() == serial.counts()

    def test_qec_workload_parallel(self, config):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 45)
        spec = qec_workload(bits, distance=3)
        serial = run_campaign(spec, config, jobs=1)
        parallel = run_campaign(spec, config, jobs=4)
        assert parallel.bucket_signature() == serial.bucket_signature()


class TestHandBuiltImage:
    def test_busy_loop_parallel_and_cached(self, tmp_path, monkeypatch):
        # An image built by hand, not by an adapter, crosses the process
        # boundary and keys the disk cache like any other.
        spec = _looping_spec(iterations=300)
        config = CampaignConfig(n_injections=48, seed=11,
                                structures=("regfile",))
        serial = run_campaign(spec, config, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        telemetry.reset()
        telemetry.enable()
        try:
            parallel = run_campaign(spec, config, jobs=2)
            summary = telemetry.metrics_summary()
        finally:
            telemetry.reset()
            telemetry.disable()
        assert "runtime.fallback.process_to_serial" not in summary
        assert "runtime.chunk_failures" not in summary
        assert parallel.bucket_signature() == serial.bucket_signature()
        assert serial.counts()["hang"] > 0
        assert any(tmp_path.rglob("*.pkl"))

        def no_load(self, spec):
            raise AssertionError("a cached campaign loaded the image")

        monkeypatch.setattr(RocketSoC, "prepare", no_load)
        again = run_campaign(spec, config, jobs=2)
        assert again.bucket_signature() == serial.bucket_signature()


class TestCampaignCache:
    def test_repeat_run_served_from_cache(self, knn_spec, config, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_campaign(knn_spec, config)
        assert any(tmp_path.rglob("*.pkl"))
        second = run_campaign(knn_spec, config)
        assert second.bucket_signature() == first.bucket_signature()

    def test_config_change_is_a_fresh_run(self, knn_spec, config, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_campaign(knn_spec, config)
        other = run_campaign(
            knn_spec, CampaignConfig(n_injections=24, seed=12))
        assert other.bucket_signature() != first.bucket_signature()
