"""Test oracle for the STA engine: per-gate scalar propagation.

The engine in :mod:`repro.sta.analysis` levelizes the netlist once and
interpolates every arc edge of a level in one stacked-table gather.
This module is the slow, obviously-correct counterpart it is pinned
against: gates are walked in topological order, every candidate is
relaxed into a ``(net, transition)`` dict one at a time ("strictly
better wins"), and hold repeats the walk with min in place of max.
Net loads are priced here by their own loop, not by the engine's.

Used by ``tests/sta/test_engine_equivalence.py`` (equality with ``==``
at every endpoint, on the SoC and on small netlists).
"""

from __future__ import annotations

import numpy as np

from repro.sta.analysis import (
    CLOCK_SLEW,
    INPUT_SLEW,
    HoldReport,
    PathPoint,
    TimingReport,
)
from repro.synth.netlist import GateNetlist
from repro.synth.placement import Placement

__all__ = ["analyze", "analyze_hold"]


def _net_load(netlist, net, library, placement) -> float:
    total = placement.net_wire_cap(net) if placement else 0.0
    for inst, pin in netlist.loads_of(net):
        if inst in netlist.gates:
            total += library[netlist.gates[inst].cell].pin_capacitance(pin)
        else:
            total += 1.0e-15
    return total


def analyze(
    netlist: GateNetlist,
    library,
    placement: Placement | None = None,
    macro_delay_scale: float = 1.0,
    input_slew: float = INPUT_SLEW,
) -> TimingReport:
    """Run STA; returns the worst-path report.

    ``macro_delay_scale`` scales every macro's fixed timing numbers to the
    library corner (SRAM transistors slow down with the logic).
    """
    # (net, transition) -> (arrival, slew, predecessor key, via-gate)
    state: dict[tuple[str, str], tuple[float, float, tuple | None, str]] = {}

    def relax(key, arrival, slew, pred, gate) -> None:
        if key not in state or arrival > state[key][0]:
            state[key] = (arrival, slew, pred, gate)

    # Start points -------------------------------------------------------
    for net in netlist.inputs:
        for tr in ("rise", "fall"):
            relax((net, tr), 0.0, input_slew, None, "@input")

    seq = netlist.sequential_gates(library)
    for gate in seq:
        cell = library[gate.cell]
        load = _net_load(netlist, gate.output, library, placement)
        arc = cell.arc_from(cell.clock_pin)
        for tr in ("rise", "fall"):
            d = arc.delay(tr, CLOCK_SLEW, load)
            s = arc.output_slew(tr, CLOCK_SLEW, load)
            relax((gate.output, tr), d, s, None, gate.name)

    for macro in netlist.macros.values():
        for net in macro.outputs:
            for tr in ("rise", "fall"):
                relax(
                    (net, tr),
                    macro.clk_to_out * macro_delay_scale,
                    input_slew,
                    None,
                    macro.name,
                )

    # Propagation ---------------------------------------------------------
    # Per arc, every query that lands in the same NLDM table is batched
    # into one array-valued lookup (see NLDMTable.lookup): one
    # searchsorted per axis instead of one Python call per (in, out)
    # transition pair.  Relaxation order per key matches the scalar loop
    # this replaces, so results are identical bit for bit.
    for gate in netlist.topological_gates(library):
        cell = library[gate.cell]
        load = _net_load(netlist, gate.output, library, placement)
        for pin, net in gate.pins.items():
            try:
                arc = cell.arc_from(pin)
            except KeyError:
                continue
            queries: dict[str, list[tuple[tuple, float, float]]] = {
                "rise": [], "fall": []
            }
            for in_tr in ("rise", "fall"):
                key = (net, in_tr)
                if key not in state:
                    continue
                arrival, slew, _, _ = state[key]
                if arc.sense == "positive_unate":
                    out_trs = [in_tr]
                elif arc.sense == "negative_unate":
                    out_trs = ["fall" if in_tr == "rise" else "rise"]
                else:
                    out_trs = ["rise", "fall"]
                for out_tr in out_trs:
                    queries[out_tr].append((key, arrival, slew))
            for out_tr, items in queries.items():
                if not items:
                    continue
                slews = np.array([slew for _, _, slew in items])
                ds = arc.delay(out_tr, slews, load)
                ss = arc.output_slew(out_tr, slews, load)
                for (key, arrival, _), d, s in zip(items, ds, ss):
                    relax(
                        (gate.output, out_tr),
                        arrival + float(d),
                        float(s),
                        key,
                        gate.name,
                    )

    # Endpoints ------------------------------------------------------------
    endpoint_arrivals: dict[str, float] = {}

    def endpoint(net: str, label: str, setup: float) -> None:
        worst = None
        for tr in ("rise", "fall"):
            if (net, tr) in state:
                a = state[(net, tr)][0] + setup
                if worst is None or a > worst:
                    worst = a
        if worst is not None:
            endpoint_arrivals[label] = worst

    for gate in seq:
        cell = library[gate.cell]
        d_net = gate.pins.get(cell.data_pin)
        if d_net:
            endpoint(d_net, f"{gate.name}/{cell.data_pin}", cell.setup_time)
    for macro in netlist.macros.values():
        for net in macro.inputs:
            endpoint(
                net,
                f"{macro.name}/{net}",
                macro.input_setup * macro_delay_scale,
            )
    for net in netlist.outputs:
        endpoint(net, f"out:{net}", 0.0)

    if not endpoint_arrivals:
        raise ValueError("design has no timing endpoints")

    critical_endpoint = max(endpoint_arrivals, key=endpoint_arrivals.get)
    critical = endpoint_arrivals[critical_endpoint]

    # Path recovery ----------------------------------------------------------
    path: list[PathPoint] = []
    # The endpoint label maps back to a net; find its worst transition.
    if critical_endpoint.startswith("out:"):
        end_net = critical_endpoint[4:]
    else:
        inst, pin = critical_endpoint.rsplit("/", 1)
        if inst in netlist.gates:
            end_net = netlist.gates[inst].pins.get(pin)
        else:
            end_net = pin
    if end_net is not None:
        best_key = None
        for tr in ("rise", "fall"):
            key = (end_net, tr)
            if key in state and (
                best_key is None or state[key][0] > state[best_key][0]
            ):
                best_key = key
        key = best_key
        while key is not None:
            arrival, _, pred, gate_name = state[key]
            cell_name = (
                netlist.gates[gate_name].cell
                if gate_name in netlist.gates
                else gate_name
            )
            path.append(
                PathPoint(
                    net=key[0],
                    transition=key[1],
                    arrival=arrival,
                    gate=gate_name,
                    cell=cell_name,
                )
            )
            key = pred
        path.reverse()

    return TimingReport(
        netlist_name=netlist.name,
        temperature_k=library.temperature_k,
        critical_path_delay=critical,
        critical_endpoint=critical_endpoint,
        path=path,
        endpoint_arrivals=endpoint_arrivals,
    )


def analyze_hold(
    netlist: GateNetlist,
    library,
    placement: Placement | None = None,
    input_slew: float = INPUT_SLEW,
    input_delay: float = 25e-12,
) -> HoldReport:
    """Propagate earliest arrivals; report the worst hold slack.

    ``input_delay`` models the clock-to-Q of whatever external register
    launches the primary inputs (signoff flows constrain inputs the same
    way); set it to 0 to treat inputs as arriving exactly on the edge.
    """
    # (net, transition) -> earliest arrival, with its slew.
    state: dict[tuple[str, str], tuple[float, float]] = {}

    def relax(key, arrival, slew) -> None:
        if key not in state or arrival < state[key][0]:
            state[key] = (arrival, slew)

    for net in netlist.inputs:
        for tr in ("rise", "fall"):
            relax((net, tr), input_delay, input_slew)

    seq = netlist.sequential_gates(library)
    for gate in seq:
        cell = library[gate.cell]
        load = _net_load(netlist, gate.output, library, placement)
        arc = cell.arc_from(cell.clock_pin)
        for tr in ("rise", "fall"):
            relax(
                (gate.output, tr),
                arc.delay(tr, CLOCK_SLEW, load),
                arc.output_slew(tr, CLOCK_SLEW, load),
            )
    for macro in netlist.macros.values():
        for net in macro.outputs:
            for tr in ("rise", "fall"):
                relax((net, tr), macro.clk_to_out, input_slew)

    for gate in netlist.topological_gates(library):
        cell = library[gate.cell]
        load = _net_load(netlist, gate.output, library, placement)
        for pin, net in gate.pins.items():
            try:
                arc = cell.arc_from(pin)
            except KeyError:
                continue
            for in_tr in ("rise", "fall"):
                key = (net, in_tr)
                if key not in state:
                    continue
                arrival, slew = state[key]
                if arc.sense == "positive_unate":
                    out_trs = [in_tr]
                elif arc.sense == "negative_unate":
                    out_trs = ["fall" if in_tr == "rise" else "rise"]
                else:
                    out_trs = ["rise", "fall"]
                for out_tr in out_trs:
                    relax(
                        (gate.output, out_tr),
                        arrival + arc.delay(out_tr, slew, load),
                        arc.output_slew(out_tr, slew, load),
                    )

    slacks: dict[str, float] = {}
    for gate in seq:
        cell = library[gate.cell]
        d_net = gate.pins.get(cell.data_pin)
        if not d_net:
            continue
        arrivals = [
            state[(d_net, tr)][0]
            for tr in ("rise", "fall")
            if (d_net, tr) in state
        ]
        if not arrivals:
            continue
        slacks[f"{gate.name}/{cell.data_pin}"] = min(arrivals) - cell.hold_time

    if not slacks:
        raise ValueError("design has no hold endpoints")
    worst = min(slacks, key=slacks.get)
    return HoldReport(
        netlist_name=netlist.name,
        temperature_k=library.temperature_k,
        worst_hold_slack=slacks[worst],
        worst_endpoint=worst,
        endpoint_slacks=slacks,
    )
