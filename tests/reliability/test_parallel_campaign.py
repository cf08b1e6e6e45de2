"""Parallel SEU campaigns: serial equivalence, caching, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.reliability import (
    CampaignConfig,
    WorkloadSpec,
    knn_workload,
    qec_workload,
    run_campaign,
)


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


class TestFactorylessSpec:
    def test_custom_spec_without_factory_still_runs_parallel(self, knn_spec,
                                                             config):
        # A hand-built spec has no rebuild recipe; the parallel path must
        # still work (the spec itself crosses the boundary, or the run
        # falls back to serial) and match the serial result.
        bare = WorkloadSpec(
            name=knn_spec.name,
            prepare=knn_spec.prepare,
            read_output=knn_spec.read_output,
            data_regions=knn_spec.data_regions,
        )
        serial = run_campaign(bare, config, jobs=1)
        parallel = run_campaign(bare, config, jobs=4)
        assert parallel.bucket_signature() == serial.bucket_signature()


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
