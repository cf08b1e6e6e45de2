"""Tests for the experiment drivers: every run() produces a sane record
and every report() renders (the benches assert the science; these cover
the plumbing and light experiments end to end)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    ext_thermal,
    fig2_readout,
    fig5_delays,
    fig6_power,
    fig7_scaling,
    table1_timing,
    table2_cycles,
)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_readout.run(n_shots=64)

    def test_products(self, result):
        assert result["points"].shape == (64 * 27, 2)
        assert set(np.unique(result["labels"])) <= {0, 1}
        assert result["decay_fidelity"][0] == 1.0

    def test_report_renders(self, result):
        text = fig2_readout.report(result)
        assert "Fig. 2(a)" in text and "Fig. 2(b)" in text
        assert str(result["n_qubits"]) in text


class TestStudyBacked:
    """Drivers that consume the shared study object."""

    @pytest.fixture(scope="class")
    def study(self):
        from repro.core import CryoStudy, StudyConfig

        return CryoStudy(StudyConfig(fast=True, shots=10))

    def test_fig5(self, study):
        result = fig5_delays.run(study)
        assert 0 < result["overlap"] <= 1
        assert "overlap" in fig5_delays.report(result)

    def test_table1(self, study):
        result = table1_timing.run(study)
        assert set(result["corners"]) == {300.0, 10.0}
        assert "Table 1" in table1_timing.report(result)

    def test_fig6(self, study):
        result = fig6_power.run(study)
        assert result["leakage_reduction"] > 0.9
        assert "Fig. 6" in fig6_power.report(result)

    def test_table2(self, study):
        result = table2_cycles.run(study)
        assert result["hdc_knn_ratio_20"] > 1
        assert "Table 2" in table2_cycles.report(result)

    def test_fig7_small(self, study):
        result = fig7_scaling.run(study, qubit_counts=(20, 100))
        assert result["knn_crossover"] > 100
        assert "Fig. 7" in fig7_scaling.report(result)

    def test_ablation_report_all(self, study):
        text = ablations.report(ablations.run(study))
        for tag in ("ABL-1", "ABL-2", "ABL-3", "ABL-4"):
            assert tag in text


class TestHistogramOverlap:
    def test_identical_is_one(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 2000)
        assert fig5_delays.histogram_overlap(a, a) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        a = np.zeros(100)
        b = np.full(100, 10.0)
        assert fig5_delays.histogram_overlap(a, b) < 0.05


class TestVQEDriver:
    def test_runs_and_renders(self):
        from repro.core import CryoStudy, StudyConfig
        from repro.experiments import ext_vqe

        study = CryoStudy(StudyConfig(fast=True, shots=5))
        result = ext_vqe.run(study, n_qubits=50, n_params=8)
        assert result["local_us"] > 0
        assert "EXT-VQE" in ext_vqe.report(result)

    def test_remote_model_monotone_in_payload(self):
        from repro.experiments.ext_vqe import RemoteHostModel

        remote = RemoteHostModel()
        assert remote.iteration_time(2000) > remote.iteration_time(20)


class TestThermalDriver:
    def test_runs_and_renders(self):
        result = ext_thermal.run()
        assert result["sustainable_power_w"] > 0.1
        assert "EXT-THERMAL" in ext_thermal.report(result)


class TestSoCSweepDriver:
    def test_runs_and_renders(self):
        from repro.experiments import ext_soc_sweep

        result = ext_soc_sweep.run(
            l1d_sizes_kib=(16, 64), n_qubits=200, shots=10
        )
        assert set(result["cycles"]) == {16, 64}
        assert "EXT-SOC-SWEEP" in ext_soc_sweep.report(
            ext_soc_sweep.run(l1d_sizes_kib=(16, 64), n_qubits=100, shots=5)
        )
