"""Tests for the cell catalog: size, function correctness, sizing rules."""

from __future__ import annotations

import itertools

import pytest

from repro.cells import cell_by_name, core_catalog, full_catalog
from repro.logic import AND, NOT, OR, VAR, XOR, truth_table


@pytest.fixture(scope="module")
def catalog():
    return full_catalog()


class TestCatalogShape:
    def test_about_two_hundred_cells(self, catalog):
        # The paper: "200 different standard cells from the ... ASAP7 PDK".
        assert 180 <= len(catalog) <= 220

    def test_names_unique(self, catalog):
        names = [c.name for c in catalog]
        assert len(set(names)) == len(names)

    def test_sequential_cells_present(self, catalog):
        seq = [c for c in catalog if c.is_sequential]
        assert len(seq) >= 15
        assert any(c.footprint == "DFF" for c in seq)
        assert any(c.footprint == "LATCH" for c in seq)

    def test_core_catalog_is_subset(self, catalog):
        names = {c.name for c in catalog}
        assert all(c.name in names for c in core_catalog())

    def test_lookup_by_name(self):
        assert cell_by_name("INV_X4").drive == 4
        with pytest.raises(KeyError):
            cell_by_name("FLUXCAP_X1")

    def test_drive_variants_share_footprint(self, catalog):
        x1 = cell_by_name("NAND2_X1")
        x4 = cell_by_name("NAND2_X4")
        assert x1.footprint == x4.footprint == "NAND2"
        assert x4.total_fins() > x1.total_fins()


class TestCellFunctions:
    CASES = {
        "INV_X1": lambda: NOT(VAR("A")),
        "BUF_X1": lambda: VAR("A"),
        "NAND2_X1": lambda: NOT(AND(VAR("A"), VAR("B"))),
        "NOR3_X1": lambda: NOT(OR(VAR("A"), VAR("B"), VAR("C"))),
        "AND4_X1": lambda: AND(VAR("A"), VAR("B"), VAR("C"), VAR("D")),
        "OR2_X1": lambda: OR(VAR("A"), VAR("B")),
        "XOR2_X1": lambda: XOR(VAR("A"), VAR("B")),
        "XNOR2_X1": lambda: NOT(XOR(VAR("A"), VAR("B"))),
        "XOR3_X1": lambda: XOR(VAR("A"), VAR("B"), VAR("C")),
        "AOI21_X1": lambda: NOT(OR(AND(VAR("A1"), VAR("A2")), VAR("B"))),
        "OAI22_X1": lambda: NOT(
            AND(OR(VAR("A1"), VAR("A2")), OR(VAR("B1"), VAR("B2")))
        ),
        "AO21_X1": lambda: OR(AND(VAR("A1"), VAR("A2")), VAR("B")),
        "MAJ3_X1": lambda: OR(
            AND(VAR("A"), VAR("B")), AND(VAR("A"), VAR("C")),
            AND(VAR("B"), VAR("C"))
        ),
        "MIN3_X1": lambda: NOT(
            OR(AND(VAR("A"), VAR("B")), AND(VAR("A"), VAR("C")),
               AND(VAR("B"), VAR("C")))
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_truth_table_matches_reference(self, name):
        cell = cell_by_name(name)
        ref = self.CASES[name]()
        assert cell.truth() == truth_table(ref, cell.inputs)

    def test_mux2_selects(self):
        cell = cell_by_name("MUX2_X1")
        for a, b, s in itertools.product([False, True], repeat=3):
            want = b if s else a
            assert cell.evaluate({"A": a, "B": b, "S": s}) == want

    def test_muxi2_is_inverting(self):
        mux = cell_by_name("MUX2_X1")
        muxi = cell_by_name("MUXI2_X1")
        for a, b, s in itertools.product([False, True], repeat=3):
            asg = {"A": a, "B": b, "S": s}
            assert muxi.evaluate(asg) == (not mux.evaluate(asg))

    def test_mux4_selects(self):
        cell = cell_by_name("MUX4_X1")
        data = ("A", "B", "C", "D")
        for bits in itertools.product([False, True], repeat=6):
            asg = dict(zip(cell.inputs, bits))
            sel = (int(asg["S1"]) << 1) | int(asg["S0"])
            assert cell.evaluate(asg) == asg[data[sel]]

    def test_drive_does_not_change_function(self):
        assert cell_by_name("NAND3_X1").truth() == cell_by_name(
            "NAND3_X4"
        ).truth()


class TestSizing:
    def test_drive_scales_fins_linearly(self):
        x1 = cell_by_name("INV_X1").sized_stages[0]
        x4 = cell_by_name("INV_X4").sized_stages[0]
        assert x4.nfin_n == 4 * x1.nfin_n
        assert x4.nfin_p == 4 * x1.nfin_p

    def test_cached_sized_stages_equal_fresh(self, catalog):
        # Derived once per frozen cell; every read returns the same tuple,
        # equal to sizing the stages afresh.
        for cell in catalog:
            if cell.is_sequential:
                continue
            cached = cell.sized_stages
            assert cell.sized_stages is cached
            assert cached == tuple(s.sized(cell.drive) for s in cell.stages)

    def test_stack_height_compensation(self):
        # NAND3's 3-high NMOS stack gets 3 fins per device at X1.
        nand3 = cell_by_name("NAND3_X1").sized_stages[0]
        assert nand3.nfin_n == 3
        # Its PMOS devices are in parallel: height 1.
        assert nand3.nfin_p <= 3

    def test_pn_ratio_favours_pmos(self):
        inv = cell_by_name("INV_X1").sized_stages[0]
        assert inv.nfin_p >= inv.nfin_n

    def test_area_positive_and_monotone_in_drive(self):
        a1 = cell_by_name("NOR2_X1").area_um2
        a8 = cell_by_name("NOR2_X8").area_um2
        assert 0 < a1 < a8


class TestValidation:
    def test_cell_output_must_be_last_stage(self):
        from repro.cells import Stage, StandardCell, device

        with pytest.raises(ValueError, match="last stage"):
            StandardCell(
                name="BAD_X1",
                inputs=("A",),
                output="Y",
                stages=(Stage("Z", device("A")),),
            )

    def test_undefined_stage_signal_rejected(self):
        from repro.cells import Stage, StandardCell, device

        with pytest.raises(ValueError, match="undefined"):
            StandardCell(
                name="BAD_X1",
                inputs=("A",),
                output="Y",
                stages=(Stage("Y", device("Q")),),
            )

    def test_bad_drive_rejected(self):
        with pytest.raises(ValueError, match="drive"):
            cell_by_name("INV_X1").with_drive(0)
