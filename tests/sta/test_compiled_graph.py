"""The compiled timing graph is reused only while it is still right.

``repro.sta`` compiles a netlist's topology once and keeps it, keyed by
the netlist, while a fingerprint of everything the compile read still
holds.  Each test here changes one of those inputs between two analyses
and holds the second analysis to the scalar oracle with ``==``; the
compile count shows whether the graph was reused or rebuilt.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.sta import analysis, analyze, analyze_hold
from repro.synth import GateNetlist, Macro, RTLBuilder, place
from repro.synth.placement import Placement
from tests.sta import oracle


def _design() -> GateNetlist:
    """Flops, a macro, mixed senses, reconvergence and a primary output."""
    nl = GateNetlist("mixed")
    clk = nl.add_input("clk")
    nl.set_clock(clk)
    nl.add_macro(Macro(
        name="sram0", kind="sram_data", inputs=["addr0"], outputs=["do0"],
        clk_to_out=300e-12, input_setup=40e-12, bits=512,
    ))
    rtl = RTLBuilder(nl)
    a, b = nl.add_input("a"), nl.add_input("b")
    qa, qb = rtl.dff(a, clk, "qa"), rtl.dff(b, clk, "qb")
    x = rtl.xor2(qa, qb)
    n1 = rtl.nand2(x, "do0")
    n2 = rtl.nor2(rtl.inv(n1), qa)
    m = rtl.mux2(n2, x, qb)
    for _ in range(3):
        m = rtl.nand2(m, qa)
    rtl.dff(m, clk, "q_end")
    rtl.dff(rtl.inv(n2), clk, "q_mid")
    nl.add_gate("BUF_X1", {"A": n1}, output="addr0")
    nl.add_output(n2)
    return nl


@pytest.fixture
def compiles(monkeypatch):
    """Count the compiles made through the memo."""
    calls = []
    compile_ = analysis._compile

    def counting(*args):
        calls.append(args[0].name)
        return compile_(*args)

    monkeypatch.setattr(analysis, "_compile", counting)
    return calls


def _assert_oracle(nl, lib, pl, scale=1.0):
    """Setup and hold equal the oracle's; returns the setup report."""
    setup = analyze(nl, lib, pl, macro_delay_scale=scale)
    assert setup == oracle.analyze(nl, lib, pl, macro_delay_scale=scale)
    assert analyze_hold(nl, lib, pl) == oracle.analyze_hold(nl, lib, pl)
    return setup


def _gate_driving(nl: GateNetlist, net: str):
    return nl.gates[nl.driver_of(net)]


def test_interleaved_corners_share_one_compile(lib300, lib10, compiles):
    nl = _design()
    pl = place(nl, lib300)
    reports = [_assert_oracle(nl, lib, pl, scale)
               for lib, scale in ((lib300, 1.0), (lib10, 1.3),
                                  (lib300, 1.0))]
    assert compiles == ["mixed"]
    assert reports[0] == reports[2] != reports[1]


def test_upsized_gate(lib300, compiles):
    nl = _design()
    pl = place(nl, lib300)
    before = _assert_oracle(nl, lib300, pl)
    gate = next(g for g in nl.gates.values() if g.cell == "NAND2_X1")
    gate.cell = "NAND2_X4"
    after = _assert_oracle(nl, lib300, pl)
    assert after.endpoint_arrivals != before.endpoint_arrivals
    assert len(compiles) == 2


def test_rewired_pin(lib300, compiles):
    nl = _design()
    pl = place(nl, lib300)
    before = _assert_oracle(nl, lib300, pl)
    gate = _gate_driving(nl, "addr0")
    old = gate.pins["A"]
    new = _gate_driving(nl, old).pins["A"]  # one gate further back
    gate.pins["A"] = new
    nl._loads[old].remove((gate.name, "A"))
    nl._loads.setdefault(new, []).append((gate.name, "A"))
    after = _assert_oracle(nl, lib300, pl)
    assert after.endpoint_arrivals != before.endpoint_arrivals
    assert len(compiles) == 2


def test_new_placement(lib300, compiles):
    nl = _design()
    pl = place(nl, lib300)
    before = _assert_oracle(nl, lib300, pl)
    # The same positions in a new object: same wire caps, one compile.
    _assert_oracle(nl, lib300, Placement(nl, dict(pl.positions)))
    assert len(compiles) == 1
    spread = Placement(nl, {name: (3.0 * x, 5.0 * y)
                            for name, (x, y) in pl.positions.items()})
    after = _assert_oracle(nl, lib300, spread)
    assert after.endpoint_arrivals != before.endpoint_arrivals
    assert len(compiles) == 2
    _assert_oracle(nl, lib300, None)
    assert len(compiles) == 3


def test_library_lacking_an_arc(lib300, compiles):
    nl = _design()
    pl = place(nl, lib300)
    before = _assert_oracle(nl, lib300, pl)
    # NAND2_X1 loses its arc from B: edges into every NAND2_X1 from B
    # must leave the graph, not keep their old slot.
    lib = dataclasses.replace(lib300, cells=dict(lib300.cells))
    nand = lib.cells["NAND2_X1"]
    lib.cells["NAND2_X1"] = dataclasses.replace(
        nand, arcs=[a for a in nand.arcs if a.related_pin != "B"])
    after = _assert_oracle(nl, lib, pl)
    assert after.endpoint_arrivals != before.endpoint_arrivals
    assert _assert_oracle(nl, lib300, pl) == before
    assert len(compiles) == 3


def test_memo_holds_live_netlists_only(lib300):
    nl = _design()
    analyze(nl, lib300, place(nl, lib300))
    assert nl in analysis._COMPILED
    # Neither the key nor the compiled graph keeps the netlist alive.
    alive = weakref.ref(nl)
    del nl
    gc.collect()
    assert alive() is None
