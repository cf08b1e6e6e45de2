"""Tests for characterization: NLDM tables, leakage, libraries, corners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import (
    CellCharacterizer,
    CharacterizationConfig,
    TechModels,
    build_library,
    cell_by_name,
    core_catalog,
)
from repro.cells.nldm import NLDMTable
from repro.device import golden_nfet, golden_pfet


@pytest.fixture(scope="module")
def models() -> TechModels:
    return TechModels(golden_nfet(), golden_pfet())


@pytest.fixture(scope="module")
def lib300(models):
    return build_library(
        models, CharacterizationConfig(temperature_k=300.0),
        catalog=core_catalog(), name="core300",
    )


@pytest.fixture(scope="module")
def lib10(models):
    return build_library(
        models, CharacterizationConfig(temperature_k=10.0),
        catalog=core_catalog(), name="core10",
    )


class TestNLDMTable:
    def test_exact_on_grid_points(self):
        t = NLDMTable(
            np.array([1.0, 2.0]), np.array([10.0, 20.0]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        assert t.lookup(1.0, 10.0) == 1.0
        assert t.lookup(2.0, 20.0) == 4.0

    def test_bilinear_midpoint(self):
        t = NLDMTable(
            np.array([1.0, 2.0]), np.array([10.0, 20.0]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        assert t.lookup(1.5, 15.0) == pytest.approx(2.5)

    def test_clamps_out_of_range(self):
        t = NLDMTable(
            np.array([1.0, 2.0]), np.array([10.0, 20.0]),
            np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        assert t.lookup(0.0, 0.0) == 1.0
        assert t.lookup(99.0, 99.0) == 4.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            NLDMTable(np.array([1.0, 2.0]), np.array([1.0]),
                      np.array([[1.0], [2.0], [3.0]]))

    def test_nonmonotone_index_rejected(self):
        with pytest.raises(ValueError, match="increase"):
            NLDMTable(np.array([2.0, 1.0]), np.array([1.0, 2.0]),
                      np.zeros((2, 2)))


class TestTimingTables:
    def test_delay_increases_with_load(self, lib300):
        arc = lib300["INV_X1"].arc_from("A")
        v = arc.cell_fall.values
        assert np.all(np.diff(v, axis=1) > 0)

    def test_delay_increases_with_input_slew(self, lib300):
        arc = lib300["INV_X1"].arc_from("A")
        v = arc.cell_fall.values
        assert np.all(np.diff(v, axis=0) > 0)

    def test_inverter_negative_unate(self, lib300):
        assert lib300["INV_X1"].arc_from("A").sense == "negative_unate"

    def test_and_positive_unate(self, lib300):
        assert lib300["AND2_X1"].arc_from("A").sense == "positive_unate"

    def test_xor_non_unate(self, lib300):
        assert lib300["XOR2_X1"].arc_from("A").sense == "non_unate"

    def test_higher_drive_is_faster_into_same_load(self, lib300):
        load, slew = 8e-15, 16e-12
        d1 = lib300["INV_X1"].arc_from("A").delay("fall", slew, load)
        d4 = lib300["INV_X4"].arc_from("A").delay("fall", slew, load)
        assert d4 < d1

    def test_every_arc_present(self, lib300):
        nand = lib300["NAND2_X1"]
        assert {a.related_pin for a in nand.arcs} == {"A", "B"}

    def test_missing_arc_raises(self, lib300):
        with pytest.raises(KeyError, match="no timing arc"):
            lib300["INV_X1"].arc_from("Z")

    def test_delays_are_picosecond_scale(self, lib300):
        d = lib300.all_delays()
        assert np.all(d > 0)
        assert np.median(d) < 100e-12


class TestLeakage:
    def test_stack_effect_in_nand_states(self, lib300):
        states = lib300["NAND2_X1"].leakage_by_state
        # Both inputs low: two off NMOS in series -> least leakage.
        assert states["00"] < states["01"]
        assert states["00"] < states["11"]

    def test_leakage_collapse_at_cryo(self, lib300, lib10):
        total300 = lib300.all_leakages().sum()
        total10 = lib10.all_leakages().sum()
        assert total300 / total10 > 100.0

    def test_leakage_scales_with_drive(self, lib300):
        assert (
            lib300["INV_X4"].leakage_avg > 2.0 * lib300["INV_X1"].leakage_avg
        )


class TestCorners:
    """The Fig.-5 claim: delay histograms at 300 K and 10 K overlap, with
    10 K slightly slower on average."""

    def test_cryo_slightly_slower_on_average(self, lib300, lib10):
        m300 = np.mean(lib300.all_delays())
        m10 = np.mean(lib10.all_delays())
        assert 1.0 < m10 / m300 < 1.10

    def test_histograms_largely_overlap(self, lib300, lib10):
        d300, d10 = lib300.all_delays(), lib10.all_delays()
        bins = np.histogram_bin_edges(
            np.concatenate([d300, d10]), bins=40
        )
        h300, _ = np.histogram(d300, bins=bins, density=True)
        h10, _ = np.histogram(d10, bins=bins, density=True)
        # Histogram intersection (shared area) close to 1 = overlap.
        overlap = np.sum(np.minimum(h300, h10)) / np.sum(h300)
        assert overlap > 0.75

    def test_pin_caps_temperature_independent(self, lib300, lib10):
        c300 = lib300["NAND2_X1"].pin_capacitance("A")
        c10 = lib10["NAND2_X1"].pin_capacitance("A")
        assert c300 == pytest.approx(c10)


class TestSequentialCharacterization:
    def test_dff_has_clock_arc(self, lib300):
        dff = lib300["DFF_X1"]
        assert dff.is_sequential
        arc = dff.arc_from("CK")
        assert arc.timing_type == "rising_edge"

    def test_setup_hold_positive(self, lib300):
        dff = lib300["DFF_X1"]
        assert dff.setup_time > 0
        assert dff.hold_time > 0
        assert dff.setup_time > dff.hold_time

    def test_clk_to_q_increases_with_load(self, lib300):
        arc = lib300["DFF_X1"].arc_from("CK")
        assert arc.delay("rise", 16e-12, 16e-15) > arc.delay(
            "rise", 16e-12, 0.2e-15
        )

    def test_stronger_dff_drives_better(self, lib300):
        d1 = lib300["DFF_X1"].arc_from("CK").delay("rise", 16e-12, 16e-15)
        d2 = lib300["DFF_X2"].arc_from("CK").delay("rise", 16e-12, 16e-15)
        assert d2 < d1


class TestLibraryContainer:
    def test_duplicate_cell_rejected(self, lib300):
        import copy

        with pytest.raises(ValueError, match="duplicate"):
            lib300.add(copy.copy(lib300["INV_X1"]))

    def test_unknown_cell_keyerror(self, lib300):
        with pytest.raises(KeyError, match="no cell"):
            lib300["NOPE_X1"]

    def test_by_footprint_sorted_by_area(self, lib300):
        invs = lib300.by_footprint("INV")
        areas = [c.area_um2 for c in invs]
        assert areas == sorted(areas)

    def test_by_footprint_index_follows_add(self, lib300):
        import dataclasses

        from repro.cells import CellLibrary

        lib = CellLibrary("copy", lib300.temperature_k, lib300.vdd)
        for cell in lib300.cells.values():
            lib.add(cell)
        assert lib.by_footprint("INV") == lib300.by_footprint("INV")
        # A variant added after the first query shows up, area-sorted.
        big = dataclasses.replace(lib300["INV_X1"], name="INV_X99",
                                  area_um2=1e3)
        lib.add(big)
        assert lib.by_footprint("INV")[-1] is big
        assert lib.by_footprint("INV")[:-1] == lib300.by_footprint("INV")
        assert lib.by_footprint("NOPE") == []

    def test_match_function_finds_nand(self, lib300):
        nand = lib300["NAND2_X1"]
        matches = lib300.match_function(nand.truth, 2)
        assert all(m.truth == nand.truth for m in matches)
        assert any(m.name == "NAND2_X1" for m in matches)

    def test_summary_keys(self, lib300):
        s = lib300.summary()
        assert s["cells"] == len(lib300)
        assert s["total_leakage_w"] > 0


class TestConfigValidation:
    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            CharacterizationConfig(engine="hspice")

    def test_sensitization_failure_detected(self, models):
        # A pin that cannot influence the output has no valid arc.
        from repro.cells import Stage, StandardCell, device, parallel

        ch = CellCharacterizer(
            models,
            CharacterizationConfig(engine="spice", slew_index=(4e-12,),
                                   load_index=(1e-15,)),
        )
        # Y = !(A | A) ignores B entirely -- build A-only cell, ask for B.
        cell = StandardCell(
            name="ODD_X1",
            inputs=("A", "B"),
            output="Y",
            stages=(Stage("Y", parallel(device("A"), device("A"))),),
        )
        with pytest.raises(ValueError, match="cannot toggle"):
            ch._characterize_arc_spice(cell, "B")
