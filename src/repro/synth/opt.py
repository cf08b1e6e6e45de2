"""Post-mapping netlist optimizations: sizing and cleanup.

Two passes the commercial flow would run after mapping:

* :func:`upsize_for_load` -- gain-based drive selection: each gate is
  replaced by the weakest drive variant of its footprint whose input
  capacitance is at least ``1/max_gain`` of the load it drives.  This is
  the classic logical-effort sizing rule and is what keeps high-fanout
  nets (register enables, bypass selects) from wrecking the critical path.
* :func:`sweep_dangling` -- remove gates whose outputs drive nothing
  (iteratively, so whole dead cones disappear).
"""

from __future__ import annotations

from repro.synth.netlist import GateNetlist

__all__ = ["upsize_for_load", "sweep_dangling", "net_load",
           "buffer_high_fanout"]

#: Load of one macro input pin (F): ~1 fF.
MACRO_PIN_CAP = 1.0e-15


def buffer_high_fanout(
    netlist: GateNetlist,
    library,
    max_fanout: int = 16,
    buffer_cell: str = "BUF_X4",
) -> int:
    """Insert buffer trees on nets whose fanout exceeds ``max_fanout``.

    The standard high-fanout-net synthesis transform (register selects,
    enables): sink pins are split into groups of ``max_fanout``, each fed
    by a buffer; the pass repeats until every net (including the new
    buffer nets) is within bounds.  The clock and constant nets are left
    alone (ideal clock tree; ties have no drive problem).  Returns the
    number of buffers inserted.
    """
    skip = {netlist.clock, "const0", "const1"}
    inserted = 0
    work = [n for n in netlist.all_nets() if n not in skip]
    while work:
        net = work.pop()
        loads = netlist.loads_of(net)
        if len(loads) <= max_fanout:
            continue
        groups = [
            loads[i : i + max_fanout] for i in range(0, len(loads), max_fanout)
        ]
        new_loads: list[tuple[str, str]] = []
        for group in groups:
            buf_out = netlist.add_gate(
                buffer_cell,
                {"A": net},
                output=netlist.new_net("hfbuf"),
                module="buftree",
            )
            buf_name = netlist.driver_of(buf_out)
            inserted += 1
            for inst, pin in group:
                if inst in netlist.gates:
                    netlist.gates[inst].pins[pin] = buf_out
                elif inst in netlist.macros:
                    macro = netlist.macros[inst]
                    macro.inputs = [
                        buf_out if n == net else n for n in macro.inputs
                    ]
                netlist._loads.setdefault(buf_out, []).append((inst, pin))
            new_loads.append((buf_name, "A"))
            work.append(buf_out)
        netlist._loads[net] = new_loads
        work.append(net)
    return inserted


def net_load(netlist: GateNetlist, net: str, library, wire_cap: float = 0.0) -> float:
    """Total capacitive load on a net in F (pins + optional wire)."""
    total = wire_cap
    for inst, pin in netlist.loads_of(net):
        if inst in netlist.gates:
            gate = netlist.gates[inst]
            total += library[gate.cell].pin_capacitance(pin)
        else:
            total += MACRO_PIN_CAP
    return total


def upsize_for_load(
    netlist: GateNetlist,
    library,
    max_gain: float = 6.0,
    wire_cap_per_fanout: float = 0.15e-15,
) -> int:
    """Select drive strengths by bounded gain; returns gates changed.

    Gain = load / input-cap.  For every gate we walk its footprint's drive
    variants (weakest first) and keep the first whose gain is within
    ``max_gain``; the strongest variant is used when none qualifies.
    """
    changed = 0
    for gate in netlist.gates.values():
        cell = library[gate.cell]
        load = net_load(
            netlist,
            gate.output,
            library,
            wire_cap=wire_cap_per_fanout * netlist.fanout(gate.output),
        )
        variants = library.by_footprint(cell.footprint)
        if len(variants) <= 1:
            continue
        best = variants[-1]
        for variant in variants:
            cin = variant.inputs[0].capacitance if variant.inputs else 0.0
            if cin <= 0:
                continue
            if load / cin <= max_gain:
                best = variant
                break
        if best.name != gate.cell:
            gate.cell = best.name
            changed += 1
    return changed


def sweep_dangling(netlist: GateNetlist, protect: set[str] | None = None) -> int:
    """Remove gates whose output net has no loads; returns gates removed.

    ``protect`` lists nets that must stay (primary outputs are always
    protected).
    """
    keep = set(netlist.outputs) | (protect or set())
    removed = 0
    while True:
        dead = [
            name
            for name, gate in netlist.gates.items()
            if gate.output not in keep and netlist.fanout(gate.output) == 0
        ]
        if not dead:
            return removed
        for name in dead:
            gate = netlist.gates.pop(name)
            del netlist._drivers[gate.output]
            for pin, net in gate.pins.items():
                loads = netlist._loads.get(net, [])
                netlist._loads[net] = [
                    (i, p) for (i, p) in loads if i != name
                ]
            removed += 1
