"""End-to-end flow tests: the paper's headline story must reproduce.

These use the ``fast`` study (golden device parameters, no calibration
stage) to keep the suite quick; the calibrated flow is covered by the
device-layer tests plus test_calibrated_flow_consistency below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CryoStudy, StudyConfig


@pytest.fixture(scope="module")
def study() -> CryoStudy:
    return CryoStudy(StudyConfig(fast=True, shots=15))


class TestTable1(object):
    def test_room_frequency_near_1ghz(self, study):
        # Paper: 960 MHz.
        assert 700e6 < study.frequency(300.0) < 1.3e9

    def test_cryo_slowdown_band(self, study):
        # Paper: 4.6 % slowdown, under 10 %.
        slowdown = (
            study.timing[10.0].critical_path_delay
            / study.timing[300.0].critical_path_delay
            - 1.0
        )
        assert 0.0 < slowdown < 0.10

    def test_macro_scale_above_one_at_cryo(self, study):
        assert study.macro_delay_scale(10.0) > 1.0
        assert study.macro_delay_scale(300.0) == pytest.approx(1.0)


class TestFig6(object):
    def test_room_infeasible_cryo_feasible(self, study):
        fig6 = study.fig6
        assert not fig6["feasible"][300.0]
        assert fig6["feasible"][10.0]

    def test_sram_leakage_dominates_at_room(self, study):
        report = study.fig6["reports"][300.0]
        assert report.leakage_sram > report.dynamic_total
        assert 0.120 < report.leakage_sram < 0.280

    def test_cryo_leakage_under_one_milliwatt(self, study):
        assert study.fig6["reports"][10.0].leakage_total < 1.5e-3

    def test_dynamic_slightly_lower_at_cryo(self, study):
        r300 = study.fig6["reports"][300.0]
        r10 = study.fig6["reports"][10.0]
        assert 0.85 < r10.dynamic_total / r300.dynamic_total < 1.0

    def test_power_reports_for_other_workloads(self, study):
        for workload in ("hdc", "dhrystone"):
            report = study.power_report(10.0, workload)
            assert report.total < 0.100
        with pytest.raises(ValueError, match="workload"):
            study.power_report(10.0, "seti")


class TestTable2(object):
    def test_knn_band(self, study):
        t2 = study.table2
        assert 30 < t2["knn"][20] < 55     # paper: 41.5
        assert 50 < t2["knn"][400] < 95    # paper: 72.8

    def test_hdc_band(self, study):
        t2 = study.table2
        assert 100 < t2["hdc"][20] < 250   # paper: 184.8
        assert 130 < t2["hdc"][400] < 320  # paper: 242.4

    def test_hdc_slower_ratio(self, study):
        t2 = study.table2
        ratio = t2["hdc"][20] / t2["knn"][20]
        # Paper: "it is 3.3x slower".
        assert 2.0 < ratio < 5.0

    def test_more_qubits_more_cycles(self, study):
        t2 = study.table2
        assert t2["knn"][400] > t2["knn"][20]
        assert t2["hdc"][400] > t2["hdc"][20]


class TestFig7(object):
    def test_knn_bottleneck_near_1500_qubits(self, study):
        s = study.scaling_study("knn", qubit_counts=(200, 800, 1200))
        crossing = s.crossover_qubits()
        # Paper Section VII: "a bottleneck ... for about 1500 qubits".
        assert 900 < crossing < 2200

    def test_hdc_uncompetitive(self, study):
        knn = study.scaling_study("knn", qubit_counts=(200, 800))
        hdc = study.scaling_study("hdc", qubit_counts=(200, 800))
        assert hdc.crossover_qubits() < knn.crossover_qubits()

    def test_series_monotone_in_time(self, study):
        s = study.scaling_study("knn", qubit_counts=(100, 400, 1200))
        times = s.times_us()
        assert times[0] < times[1] < times[2]

    def test_unknown_method_rejected(self, study):
        with pytest.raises(ValueError, match="method"):
            study.scaling_study("svm", qubit_counts=(10,))


class TestClassificationSetup(object):
    """One readout setup per size per study, shared read-only."""

    def test_memo_returns_one_setup_and_counts_the_hit(self):
        study = CryoStudy(StudyConfig(fast=True, shots=5))
        first = study.classification_setup(20)
        assert study.classification_setup(20) is first
        assert study.classification_setup(8) is not first
        assert study.stage_cache_stats()["classification_setup"] == {
            "hits": 1, "misses": 2}

    def test_dataset_arrays_are_read_only(self):
        _, dataset, _, _ = CryoStudy(
            StudyConfig(fast=True, shots=5)).classification_setup(8)
        _, _, pts = dataset.interleaved()
        for array in (dataset.calibration_centers, dataset.states,
                      dataset.points, pts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_two_studies_with_one_config_agree(self):
        config = StudyConfig(fast=True, shots=5, seed=7)
        (b1, d1, k1, h1), (b2, d2, k2, h2) = (
            CryoStudy(config).classification_setup(12) for _ in range(2))
        assert b1.qubits == b2.qubits
        for name in ("calibration_centers", "states", "points"):
            np.testing.assert_array_equal(getattr(d1, name),
                                          getattr(d2, name), strict=True)
        assert k1.to_dict() == k2.to_dict()
        assert h1.to_dict() == h2.to_dict()


class TestCalibratedFlowConsistency(object):
    """The honest (calibrated) flow must tell the same story as the
    golden-parameter flow -- calibration error does not flip conclusions."""

    @pytest.fixture(scope="class")
    def calibrated(self):
        return CryoStudy(StudyConfig(fast=False, shots=10))

    def test_table1_story_holds(self, calibrated):
        slowdown = (
            calibrated.timing[10.0].critical_path_delay
            / calibrated.timing[300.0].critical_path_delay
            - 1.0
        )
        assert 0.0 < slowdown < 0.12

    def test_fig6_story_holds(self, calibrated):
        fig6 = calibrated.fig6
        assert not fig6["feasible"][300.0]
        assert fig6["feasible"][10.0]


class TestReportHelpers(object):
    def test_format_table(self):
        from repro.core import format_table

        text = format_table(["a", "bb"], [[1, 2], [30, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "30" in lines[-1]

    def test_histogram_rows(self):
        import numpy as np

        from repro.core import histogram_rows

        text = histogram_rows(np.random.default_rng(0).normal(0, 1, 500),
                              bins=10, label="H")
        assert text.splitlines()[0] == "H"
        assert "#" in text


class TestArtifactExport(object):
    def test_export_writes_all_artifacts(self, study, tmp_path):
        paths = study.export_artifacts(tmp_path / "artifacts")
        import os

        assert set(paths) == {
            "modelcard_n", "modelcard_p", "liberty_300K", "liberty_10K",
            "netlist", "summary",
        }
        for path in paths.values():
            assert os.path.exists(path)

    def test_exported_modelcard_roundtrips(self, study, tmp_path):
        from repro.device import modelcard

        paths = study.export_artifacts(tmp_path / "a")
        back = modelcard.load(paths["modelcard_n"])
        assert back == study.models.nfet

    def test_exported_liberty_parses(self, study, tmp_path):
        from repro.cells import read_liberty

        paths = study.export_artifacts(tmp_path / "a")
        lib = read_liberty(paths["liberty_10K"])
        assert lib.temperature_k == 10.0
        assert len(lib) == len(study.libraries[10.0])

    def test_netlist_is_verilog(self, study, tmp_path):
        from pathlib import Path

        paths = study.export_artifacts(tmp_path / "a")
        text = Path(paths["netlist"]).read_text()
        assert "module rocket_soc (" in text
        assert "endmodule" in text

    def test_summary_mentions_both_artifacts(self, study, tmp_path):
        from pathlib import Path

        paths = study.export_artifacts(tmp_path / "a")
        text = Path(paths["summary"]).read_text()
        assert "Table 1" in text
        assert "Fig. 6" in text
