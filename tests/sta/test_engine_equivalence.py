"""The levelized STA engine equals the scalar oracle exactly.

``repro.sta`` propagates whole levels through stacked NLDM tables;
``tests/sta/oracle.py`` walks one gate and one candidate at a time.
Every comparison here is ``==``: same arrivals, same tie-breaks, same
predecessor chain, at both Table 1 corners and on small netlists that
reach the engine's corner cases.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cells import CellLibrary
from repro.cells.nldm import NLDMTable, TimingArc
from repro.device import FinFET, golden_nfet, golden_pfet
from repro.sta import analyze, analyze_hold
from repro.synth import GateNetlist, Macro, RTLBuilder, place
from repro.synth.opt import buffer_high_fanout, upsize_for_load
from repro.synth.soc_builder import build_soc
from tests.sta import oracle


def _macro_delay_scale(t: float) -> float:
    n, p = FinFET(golden_nfet()), FinFET(golden_pfet())
    base = n.effective_current(300.0) + p.effective_current(300.0)
    return base / (n.effective_current(t) + p.effective_current(t))


def _assert_same(netlist, library, placement=None, **kwargs) -> None:
    """Setup (and hold, when the design has flops) equal the oracle's."""
    setup = analyze(netlist, library, placement, **kwargs)
    assert setup == oracle.analyze(netlist, library, placement, **kwargs)
    if netlist.sequential_gates(library):
        kwargs.pop("macro_delay_scale", None)
        hold = analyze_hold(netlist, library, placement, **kwargs)
        assert hold == oracle.analyze_hold(netlist, library, placement,
                                           **kwargs)


@pytest.fixture(scope="module")
def soc(lib300):
    """The Table 1 SoC netlist, buffered, sized and placed."""
    netlist = build_soc(lib300).netlist
    buffer_high_fanout(netlist, lib300)
    upsize_for_load(netlist, lib300)
    return netlist, place(netlist, lib300)


@pytest.fixture(scope="module")
def soc_reports(soc, lib300, lib10):
    """(setup, hold, oracle setup, oracle hold) per corner on the SoC."""
    nl, pl = soc
    out = {}
    for lib in (lib300, lib10):
        scale = _macro_delay_scale(lib.temperature_k)
        out[lib.temperature_k] = (
            analyze(nl, lib, pl, macro_delay_scale=scale),
            analyze_hold(nl, lib, pl),
            oracle.analyze(nl, lib, pl, macro_delay_scale=scale),
            oracle.analyze_hold(nl, lib, pl),
        )
    return out


@pytest.mark.parametrize("temperature", [300.0, 10.0])
class TestSoCBothCorners:
    def test_every_endpoint_arrival(self, soc_reports, temperature):
        setup, _, ref, _ = soc_reports[temperature]
        assert len(setup.endpoint_arrivals) > 2000
        assert list(setup.endpoint_arrivals) == list(ref.endpoint_arrivals)
        for label, arrival in ref.endpoint_arrivals.items():
            assert setup.endpoint_arrivals[label] == arrival, label

    def test_critical_endpoint_and_delay(self, soc_reports, temperature):
        setup, _, ref, _ = soc_reports[temperature]
        assert setup.critical_endpoint == ref.critical_endpoint
        assert setup.critical_path_delay == ref.critical_path_delay

    def test_full_critical_path(self, soc_reports, temperature):
        setup, _, ref, _ = soc_reports[temperature]
        assert len(setup.path) > 10
        assert setup.path == ref.path

    def test_every_hold_slack(self, soc_reports, temperature):
        _, hold, _, ref = soc_reports[temperature]
        assert hold.endpoint_slacks == ref.endpoint_slacks
        assert hold.worst_endpoint == ref.worst_endpoint
        assert hold.worst_hold_slack == ref.worst_hold_slack


class TestSmallNetlists:
    def test_xor_tie_keeps_rise_predecessor(self, lib300):
        # Both input transitions arrive at 0 with the same slew, so the
        # non-unate XOR's rise and fall candidates tie exactly; the first
        # (rise) must win, as in the oracle.
        nl = GateNetlist("xor")
        clk = nl.add_input("clk")
        nl.set_clock(clk)
        a, b = nl.add_input("a"), nl.add_input("b")
        y = nl.add_gate("XOR2_X1", {"A": a, "B": b})
        RTLBuilder(nl).dff(y, clk, "q")
        rep = analyze(nl, lib300)
        assert rep.path[0].net == "a"
        assert rep.path[0].transition == "rise"
        assert rep.path == oracle.analyze(nl, lib300).path
        _assert_same(nl, lib300)
        _assert_same(nl, lib300, place(nl, lib300))

    def test_macros_with_scaled_delay(self, lib300):
        nl = GateNetlist("m")
        clk = nl.add_input("clk")
        nl.set_clock(clk)
        nl.add_macro(Macro(
            name="sram0", kind="sram_data", inputs=["addr0"],
            outputs=["do0", "do1"], clk_to_out=400e-12,
            input_setup=50e-12, bits=1024,
        ))
        rtl = RTLBuilder(nl)
        rtl.dff(rtl.nand2("do0", rtl.inv("do1")), clk, "q")
        qa = rtl.dff(nl.add_input("a"), clk, "qa")
        nl.add_gate("BUF_X1", {"A": qa}, output="addr0")
        for scale in (0.8, 1.0, 1.37):
            _assert_same(nl, lib300, place(nl, lib300),
                         macro_delay_scale=scale)
        rep = analyze(nl, lib300, macro_delay_scale=1.37)
        assert rep.path[0].gate == "sram0"

    def test_primary_output_endpoint(self, lib300):
        nl = GateNetlist("po")
        net = nl.add_input("a")
        for _ in range(3):
            net = RTLBuilder(nl).inv(net)
        nl.add_output(net)
        nl.add_output("a")
        rep = analyze(nl, lib300, input_slew=30e-12)
        assert rep.critical_endpoint == f"out:{net}"
        assert rep.endpoint_arrivals["out:a"] == 0.0
        _assert_same(nl, lib300, input_slew=30e-12)

    def test_net_without_start_point(self, lib300):
        # const0 has no start point: the inverter it drives is never
        # reached, and the NAND sees a candidate from one pin only.
        nl = GateNetlist("unreached")
        clk = nl.add_input("clk")
        nl.set_clock(clk)
        nl.ensure_constants()
        rtl = RTLBuilder(nl)
        dead = nl.add_gate("INV_X1", {"A": "const0"})
        live = rtl.nand2(nl.add_input("a"), dead)
        rtl.dff(dead, clk, "q_dead")
        rtl.dff(live, clk, "q_live")
        rep = analyze(nl, lib300)
        assert set(rep.endpoint_arrivals) == {
            f"{g.name}/D" for g in nl.sequential_gates(lib300)
            if g.pins["D"] == live
        }
        _assert_same(nl, lib300)
        _assert_same(nl, lib300, place(nl, lib300), input_slew=50e-12)

    def test_library_with_two_index_grids(self, lib300):
        # Re-grid the inverters onto a 5x4 box (and slow them by 25 %, so
        # the new tables visibly matter): the engine must stack them apart
        # from the shipped 7x7 tables and interpolate each on its own axes.
        slews = (3e-12, 9e-12, 27e-12, 81e-12, 150e-12)
        loads = (0.3e-15, 1.5e-15, 6e-15, 20e-15)

        def regrid(arc: TimingArc) -> TimingArc:
            tables = {
                f: NLDMTable.from_function(
                    lambda s, c, t=getattr(arc, f): 1.25 * t.lookup(s, c),
                    slews, loads,
                )
                for f in ("cell_rise", "cell_fall", "rise_transition",
                          "fall_transition")
            }
            return dataclasses.replace(arc, **tables)

        lib = CellLibrary("two_grids", lib300.temperature_k, lib300.vdd)
        for name, cell in lib300.cells.items():
            if name.startswith("INV_"):
                cell = dataclasses.replace(
                    cell, arcs=[regrid(a) for a in cell.arcs]
                )
            lib.add(cell)
        grids = {
            (t.slews.tobytes(), t.loads.tobytes())
            for c in lib.cells.values() for a in c.arcs
            for t in (a.cell_rise, a.rise_transition)
        }
        assert len(grids) == 2

        nl = GateNetlist("mixed")
        clk = nl.add_input("clk")
        nl.set_clock(clk)
        rtl = RTLBuilder(nl)
        net = rtl.dff(nl.add_input("d"), clk, "launch")
        for i in range(8):
            net = rtl.inv(net) if i % 2 else rtl.nand2(net, "d")
        rtl.dff(net, clk, "capture")
        _assert_same(nl, lib, place(nl, lib))
        assert analyze(nl, lib).critical_path_delay != analyze(
            nl, lib300).critical_path_delay


class TestLevels:
    def test_drivers_sit_shallower(self, soc, lib300):
        nl, _ = soc
        depth = nl.levels(lib300)
        assert len(depth) == nl.gate_count
        for gate in nl.sequential_gates(lib300):
            assert depth.pop(gate.name) == 0
        for name, d in depth.items():
            for net in nl.gates[name].input_nets():
                assert depth.get(nl.driver_of(net), -1) < d

    def test_placement_unchanged_on_soc(self, soc):
        # Placement columns come from GateNetlist.levels; positions, and
        # so every wire cap, are pinned to the inline depth loop it
        # replaced.
        _, pl = soc
        digest = hashlib.sha256(
            repr(sorted(pl.positions.items())).encode()
        ).hexdigest()
        assert digest == (
            "eba5113bc58da399d13a6fda62224a1765297883b0f4af5959c52a1060e6cd64"
        )
        assert pl.total_wirelength_um() == 1998148.6800000987
