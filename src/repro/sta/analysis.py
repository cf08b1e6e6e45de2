"""Static timing analysis over NLDM libraries: setup and hold, one engine.

The PrimeTime substitute behind the paper's Table 1: (arrival, slew) per
transition through the mapped netlist, with unateness and net loads from
pin caps plus placed wires; reports the critical path, fmax, per-endpoint
arrivals and hold slacks.

Levelized as in OpenTimer (Huang & Wong, ICCAD 2015): a netlist's timing
graph is compiled once into index arrays -- every ``(net, transition)``
keyed by an integer, the arc edges grouped by :meth:`GateNetlist.levels`
depth, clock-to-Q arcs first -- and kept while nothing it was compiled
from changes; each call gathers one library's pin caps and tables into
it.  A level is one stacked-table gather per NLDM grid, then the first max
(setup) or first min (hold) per destination key over candidates in pin
order, rise before fall: the tie rule of the scalar oracle in
``tests/sta/oracle.py``.

Start points: flop Q pins, macro data outputs, primary inputs.  Endpoints:
flop D pins, plus macro data inputs and primary outputs for setup.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.cells.nldm import bilinear
from repro.synth.netlist import GateNetlist
from repro.synth.opt import MACRO_PIN_CAP
from repro.synth.placement import Placement

__all__ = ["HoldReport", "PathPoint", "TimingReport", "analyze",
           "analyze_hold"]

#: Default primary-input slew (s).
INPUT_SLEW = 10e-12

#: Slew assumed at flop clock pins (ideal clock tree).
CLOCK_SLEW = 8e-12

#: Edge kinds of an arc instance.  Each kind's edges are (input, output)
#: transition pairs (0 = rise, 1 = fall) in the oracle's relaxation order:
#: per input transition, rise before fall.  A clock-to-Q arc is one
#: clock "rise" reaching both; an unknown sense is non-unate.
_CLOCK_TO_Q, _NON_UNATE = 0, 3
_SENSES = {"positive_unate": 1, "negative_unate": 2}
_EDGE_KINDS = (((0, 0), (0, 1)), ((0, 0), (1, 1)), ((0, 1), (1, 0)),
               ((0, 0), (0, 1), (1, 0), (1, 1)))
_EDGES_PER_KIND = np.array([len(k) for k in _EDGE_KINDS], dtype=np.int64)
_EDGE_IN, _EDGE_OUT = (
    np.array([[e[i] for e in k] + [0] * (4 - len(k)) for k in _EDGE_KINDS],
             dtype=np.int64)
    for i in (0, 1))


@dataclass(frozen=True)
class PathPoint:
    """One hop on a timing path."""

    net: str
    transition: str
    arrival: float
    gate: str
    cell: str


@dataclass
class TimingReport:
    """STA results for one corner."""

    netlist_name: str
    temperature_k: float
    critical_path_delay: float
    critical_endpoint: str
    path: list[PathPoint] = field(default_factory=list)
    endpoint_arrivals: dict[str, float] = field(default_factory=dict)

    @property
    def fmax_hz(self) -> float:
        """Maximum clock frequency implied by the critical path."""
        return 1.0 / self.critical_path_delay

    def slack(self, clock_period: float) -> float:
        """Worst setup slack at a given clock period."""
        return clock_period - self.critical_path_delay

    def worst_endpoints(self, n: int = 5) -> list[tuple[str, float]]:
        """The n endpoints with the largest arrival+setup."""
        ranked = sorted(
            self.endpoint_arrivals.items(), key=lambda kv: -kv[1]
        )
        return ranked[:n]


@dataclass
class HoldReport:
    """Min-path results for one corner."""

    netlist_name: str
    temperature_k: float
    worst_hold_slack: float
    worst_endpoint: str
    endpoint_slacks: dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no endpoint violates its hold window."""
        return self.worst_hold_slack >= 0.0


#: Key of the ideal clock, the source of every clock-to-Q arc: the last
#: slot of the key arrays.  Its predecessor -1 ends every path walk.
_CLOCK = -1

#: Slot 0 of a graph's pin capacitances: a macro input pin.
_MACRO_PIN = 0


@dataclass
class _Topology:
    """What a netlist, its placement and the library's arc structure fix.

    Keys are ``2 * nets[net] + tr`` per (net, transition), plus the clock.
    Arc edges are sorted by (level, destination key), pin order and rise
    before fall kept within one destination; ``levels`` holds each
    level's edge slice, its destination keys once each, and their first
    edge and edge count within the slice.
    """

    nets: dict[str, int]
    wire: np.ndarray  # wire cap of each gate's output net, netlist order
    load_gate: np.ndarray  # the loads of every gate output in load order:
    load_pin: np.ndarray  # its gate row and the load's pin slot
    pins: list[tuple[str, str]]  # (cell, pin) per slot from 1
    arcs: list[tuple[str, str]]  # (cell, related pin) per arc slot
    src: np.ndarray
    gate: np.ndarray  # the gate row whose output load an edge sees
    table: np.ndarray  # 4 * arc slot + output transition
    levels: list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]


def _compile(netlist: GateNetlist, library,
             placement: Placement | None) -> _Topology:
    """Key every (net, transition); sort the arc edges by level."""
    nets: dict[str, int] = {}
    for net in netlist.inputs + [
        n for macro in netlist.macros.values() for n in macro.outputs
    ]:
        nets.setdefault(net, len(nets))
    pins: dict[tuple[str, str], int] = {}
    arcs: dict[tuple[str, str], int] = {}
    # cell name -> (clock-to-Q arc slot, None) for a flop, else
    # (None, {pin: (arc slot, edge kind)})
    cells: dict[str, tuple] = {}

    def resolve(name: str) -> tuple:
        cell = library[name]
        if cell.is_sequential:
            cell.arc_from(cell.clock_pin)  # KeyError without a CK arc
            return arcs.setdefault((name, cell.clock_pin), len(arcs)), None
        by_pin = {}
        for arc in cell.arcs:
            by_pin.setdefault(arc.related_pin, (
                arcs.setdefault((name, arc.related_pin), len(arcs)),
                _SENSES.get(arc.sense, _NON_UNATE)))
        return None, by_pin

    def pin_slot(inst: str, pin: str) -> int:
        load = gates.get(inst)
        if load is None:
            return _MACRO_PIN
        return pins.setdefault((load.cell, pin), len(pins) + 1)

    depth = netlist.levels(library)
    gates = netlist.gates
    rows = list(gates.values())
    out_key, level = [], []
    # One record per arc instance: (gate row, source key, arc slot, kind).
    hits: list[tuple[int, int, int, int]] = []
    for row, gate in enumerate(rows):
        out_key.append(2 * nets.setdefault(gate.output, len(nets)))
        clock_arc, by_pin = (cells.get(gate.cell)
                             or cells.setdefault(gate.cell,
                                                 resolve(gate.cell)))
        if by_pin is None:
            level.append(0)  # clock-to-Q first
            hits.append((row, _CLOCK, clock_arc, _CLOCK_TO_Q))
            continue
        level.append(depth[gate.name] + 1)
        for pin, net in gate.pins.items():
            hit = by_pin.get(pin)
            if hit is not None:
                hits.append((row, 2 * nets.setdefault(net, len(nets)),
                             hit[0], hit[1]))

    # Expand each arc instance into its edges, in the oracle's order.
    h_row, h_src, h_arc, h_kind = (
        np.array(col, dtype=np.int64).reshape(-1)
        for col in (zip(*hits) if hits else [()] * 4))
    counts = _EDGES_PER_KIND[h_kind]
    inst = np.repeat(np.arange(len(hits)), counts)  # each edge's instance
    nth = np.arange(len(inst)) - np.repeat(np.cumsum(counts) - counts, counts)
    kind = h_kind[inst]
    in_tr, tr = _EDGE_IN[kind, nth], _EDGE_OUT[kind, nth]
    row = h_row[inst]
    dst = np.array(out_key, dtype=np.int64)[row] + tr
    lvl = np.array(level, dtype=np.int64)[row]
    # Stable: the edges into one key keep pin order, rise before fall.
    order = np.lexsort((dst, lvl))
    lvl, dst = lvl[order], dst[order]
    bounds = np.flatnonzero(np.diff(lvl)) + 1
    levels = []
    for lo, hi in zip([0, *bounds], [*bounds, len(lvl)]):
        keys, starts, n = np.unique(dst[lo:hi], return_index=True,
                                    return_counts=True)
        levels.append((slice(lo, hi), keys, starts, n))

    loads = [netlist.loads_of(gate.output) for gate in rows]
    wire = np.array([placement.net_wire_cap(gate.output)
                     if placement is not None else 0.0 for gate in rows],
                    dtype=float)
    return _Topology(
        nets, wire,
        np.repeat(np.arange(len(rows)), [len(ls) for ls in loads]),
        np.array([pin_slot(name, pin) for ls in loads for name, pin in ls],
                 dtype=np.int64),
        list(pins), list(arcs),
        (h_src[inst] + in_tr)[order], row[order],
        (4 * h_arc[inst] + tr)[order], levels,
    )


def _fingerprint(netlist: GateNetlist, library,
                 placement: Placement | None) -> list:
    """Everything :func:`_compile` reads, flattened so that two equal
    lists mean equal inputs (each variable-length part is prefixed by its
    length): the gates with their pin->net maps and output loads, the
    primary inputs, the macro outputs, the placement's positions and the
    library's arc structure of every cell the netlist uses."""
    flat: list = [len(netlist.inputs), *netlist.inputs, len(netlist.macros)]
    for macro in netlist.macros.values():
        flat += (macro.name, len(macro.outputs), *macro.outputs)
    flat.append(len(netlist.gates))
    used = set()
    for gate in netlist.gates.values():
        loads = netlist.loads_of(gate.output)
        flat += (gate.name, gate.cell, gate.output, len(gate.pins),
                 *gate.pins, *gate.pins.values(), len(loads), *loads)
        used.add(gate.cell)
    if placement is None:
        flat.append(None)
    else:
        positions = placement.positions
        flat += (len(positions), *positions, *positions.values())
    for name in sorted(used):
        cell = library[name]
        flat += (name, cell.is_sequential, cell.clock_pin, len(cell.arcs),
                 *((a.related_pin, a.sense) for a in cell.arcs))
    return flat


#: netlist -> (fingerprint, topology) of its last compile.  Weak keys: a
#: netlist that is gone takes its graph with it.
_COMPILED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _topology(netlist: GateNetlist, library,
              placement: Placement | None) -> _Topology:
    """The compiled graph, reused while its fingerprint holds.

    Setup and hold, and every library with the same arc structure (both
    Table 1 corners), share one compile.  A placement of another netlist
    object is compiled afresh each time.
    """
    if placement is not None and placement.netlist is not netlist:
        return _compile(netlist, library, placement)
    key = _fingerprint(netlist, library, placement)
    hit = _COMPILED.get(netlist)
    if hit is not None and hit[0] == key:
        return hit[1]
    topology = _compile(netlist, library, placement)
    _COMPILED[netlist] = (key, topology)
    return topology


@dataclass
class _Graph:
    """A topology's tables and per-edge loads in one library."""

    stacks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    grid_of: np.ndarray
    load: np.ndarray

    def lookup(self, tids, slew, load) -> np.ndarray:
        """Interpolate table ``tids[k]`` at ``(slew[k], load[k])``."""
        out = np.empty(len(tids))
        for g, (slews, loads, values) in enumerate(self.stacks):
            m = self.grid_of[tids] == g
            out[m] = bilinear(slews, loads, values, tids[m], slew[m], load[m])
        return out


def _stack(tables: list) -> tuple[list, np.ndarray]:
    """One ``(slews, loads, values)`` stack per index grid, and each
    table's grid.  Every stack has a slot per table (zeros where the table
    sits on another grid), so a table id indexes any stack."""
    keys = [(t.slews.tobytes(), t.loads.tobytes()) for t in tables]
    grids = {k: g for g, k in enumerate(dict.fromkeys(keys))}
    stacks = []
    for key in grids:
        first = tables[keys.index(key)]
        blank = np.zeros_like(first.values)
        stacks.append((first.slews, first.loads, np.stack(
            [t.values if k == key else blank for t, k in zip(tables, keys)]
        )))
    return stacks, np.array([grids[k] for k in keys], dtype=np.int64)


def _bind(topology: _Topology, library) -> _Graph:
    """Gather the library's pin caps and NLDM tables by slot."""
    caps = np.array([MACRO_PIN_CAP] + [
        library[cell].pin_capacitance(pin) for cell, pin in topology.pins
    ])
    # Wire first, then each pin in load order, as net_load adds them
    # (add.at accumulates in index order).
    load = topology.wire.copy()
    np.add.at(load, topology.load_gate, caps[topology.load_pin])
    tables = []
    for cell, pin in topology.arcs:
        arc = library[cell].arc_from(pin)
        tables += (arc.cell_rise, arc.cell_fall, arc.rise_transition,
                   arc.fall_transition)
    return _Graph(*_stack(tables), load[topology.gate])


@dataclass
class _State:
    """Propagated arrivals; an unreached key holds +-inf."""

    nets: dict[str, int]
    arrival: list[float]
    pred: list[int]

    def keys(self, net: str) -> list[int]:
        """The reached keys of a net, rise first."""
        n = self.nets.get(net)
        if n is None:
            return []
        return [k for k in (2 * n, 2 * n + 1)
                if math.isfinite(self.arrival[k])]


def _propagate(netlist: GateNetlist, library,
               placement: Placement | None, input_arrival: float,
               macro_scale: float, input_slew: float, latest: bool) -> _State:
    """Latest (setup) or earliest (hold) arrival at every key."""
    topo = _topology(netlist, library, placement)
    graph = _bind(topo, library)
    reduce = np.maximum if latest else np.minimum
    size = 2 * len(topo.nets) + 1
    arrival = np.full(size, -np.inf if latest else np.inf)
    slew = np.zeros(size)
    pred = np.full(size, -1)
    arrival[_CLOCK], slew[_CLOCK] = 0.0, CLOCK_SLEW
    starts = [(net, input_arrival) for net in netlist.inputs] + [
        (net, macro.clk_to_out * macro_scale)
        for macro in netlist.macros.values() for net in macro.outputs
    ]
    for net, t in starts:
        key = 2 * topo.nets[net]
        arrival[key:key + 2], slew[key:key + 2] = t, input_slew

    for edges, dst, first_edge, counts in topo.levels:
        src = topo.src[edges]
        tids, load = topo.table[edges], graph.load[edges]
        in_slew = slew[src]
        cand = arrival[src] + graph.lookup(tids, in_slew, load)
        out_slew = graph.lookup(tids + 2, in_slew, load)
        # First best candidate per destination ("strictly better wins").
        best = np.repeat(reduce.reduceat(cand, first_edge), counts)
        first = np.minimum.reduceat(
            np.where(cand == best, np.arange(len(cand)), len(cand)),
            first_edge,
        )
        arrival[dst] = cand[first]
        slew[dst] = out_slew[first]
        pred[dst] = src[first]
    return _State(topo.nets, arrival.tolist(), pred.tolist())


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
    state = _propagate(netlist, library, placement, 0.0, macro_delay_scale,
                       input_slew, latest=True)
    arrival = state.arrival

    endpoint_arrivals: dict[str, float] = {}

    def endpoint(net: str, label: str, setup: float) -> None:
        arrivals = [arrival[key] + setup for key in state.keys(net)]
        if arrivals:
            endpoint_arrivals[label] = max(arrivals)

    for gate in netlist.sequential_gates(library):
        cell = library[gate.cell]
        d_net = gate.pins.get(cell.data_pin)
        if d_net:
            endpoint(d_net, f"{gate.name}/{cell.data_pin}", cell.setup_time)
    for macro in netlist.macros.values():
        for net in macro.inputs:
            endpoint(net, f"{macro.name}/{net}",
                     macro.input_setup * macro_delay_scale)
    for net in netlist.outputs:
        endpoint(net, f"out:{net}", 0.0)

    if not endpoint_arrivals:
        raise ValueError("design has no timing endpoints")

    critical_endpoint = max(endpoint_arrivals, key=endpoint_arrivals.get)

    # Path recovery: map the endpoint label back to its net, then walk
    # the predecessors of the net's worst transition.
    if critical_endpoint.startswith("out:"):
        end_net = critical_endpoint[4:]
    else:
        inst, pin = critical_endpoint.rsplit("/", 1)
        end_net = (netlist.gates[inst].pins.get(pin)
                   if inst in netlist.gates else pin)
    nets = list(state.nets)
    path: list[PathPoint] = []
    key = max(state.keys(end_net), key=arrival.__getitem__, default=-1)
    while key != -1:
        net = nets[key // 2]
        gate = netlist.driver_of(net)
        cell = netlist.gates[gate].cell if gate in netlist.gates else gate
        path.append(PathPoint(net, ("rise", "fall")[key % 2], arrival[key],
                              gate, cell))
        key = state.pred[key]
    path.reverse()

    return TimingReport(
        netlist_name=netlist.name,
        temperature_k=library.temperature_k,
        critical_path_delay=endpoint_arrivals[critical_endpoint],
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

    Table 1's discussion: at 10 K "the hold times of the circuit are not
    impacted".  Same-edge check with an ideal clock: hold slack = min data
    arrival - hold time.  ``input_delay`` models the clock-to-Q of
    whatever external register launches the primary inputs (signoff flows
    constrain inputs the same way); set it to 0 to treat inputs as
    arriving exactly on the edge.  Macro access times are not scaled.
    """
    state = _propagate(netlist, library, placement, input_delay, 1.0,
                       input_slew, latest=False)
    slacks: dict[str, float] = {}
    for gate in netlist.sequential_gates(library):
        cell = library[gate.cell]
        d_net = gate.pins.get(cell.data_pin)
        keys = state.keys(d_net) if d_net else []
        if keys:
            slacks[f"{gate.name}/{cell.data_pin}"] = (
                min(state.arrival[k] for k in keys) - cell.hold_time
            )

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
