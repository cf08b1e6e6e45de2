"""Static timing analysis over NLDM libraries: setup and hold, one engine.

The PrimeTime substitute behind the paper's Table 1: (arrival, slew) per
transition through the mapped netlist, with unateness and net loads from
pin caps plus placed wires; reports the critical path, fmax, per-endpoint
arrivals and hold slacks.

Levelized as in OpenTimer (Huang & Wong, ICCAD 2015): each call keys every
``(net, transition)`` by an integer and groups the arc edges by
:meth:`GateNetlist.levels` depth, clock-to-Q arcs first.  A level is one
stacked-table gather per NLDM grid, then the first max (setup) or first min
(hold) per destination key over candidates in pin order, rise before fall:
the tie rule of the scalar oracle in ``tests/sta/oracle.py``.

Start points: flop Q pins, macro data outputs, primary inputs.  Endpoints:
flop D pins, plus macro data inputs and primary outputs for setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cells.nldm import bilinear
from repro.synth.netlist import GateNetlist
from repro.synth.opt import net_load
from repro.synth.placement import Placement

__all__ = ["HoldReport", "PathPoint", "TimingReport", "analyze",
           "analyze_hold"]

#: Default primary-input slew (s).
INPUT_SLEW = 10e-12

#: Slew assumed at flop clock pins (ideal clock tree).
CLOCK_SLEW = 8e-12

#: Output transitions (0 = rise, 1 = fall) reached from an input rise and
#: from an input fall, per arc sense; anything else is non-unate.
_OUT_TRS = {"positive_unate": ((0,), (1,)), "negative_unate": ((1,), (0,))}
_NON_UNATE = ((0, 1), (0, 1))


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


@dataclass
class _Level:
    """The arc edges into one level, sorted by destination key."""

    src: np.ndarray
    delay: np.ndarray  # table ids
    slew: np.ndarray
    load: np.ndarray
    dst: np.ndarray  # each destination key once
    starts: np.ndarray  # its first edge
    counts: np.ndarray  # and its edge count


@dataclass
class _Graph:
    """Key ``2 * nets[net] + tr`` per (net, transition), plus the clock."""

    nets: dict[str, int]
    stacks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    grid_of: np.ndarray
    levels: list[_Level]

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
    return stacks, np.array([grids[k] for k in keys])


def _build_graph(netlist: GateNetlist, library,
                 placement: Placement | None) -> _Graph:
    """Key every (net, transition); bucket the arc edges by level."""
    nets: dict[str, int] = {}
    for net in netlist.inputs + [
        n for macro in netlist.macros.values() for n in macro.outputs
    ]:
        nets.setdefault(net, len(nets))
    tables: dict[int, tuple] = {}  # id(table) -> (table id, table)

    def tid(table) -> int:
        return tables.setdefault(id(table), (len(tables), table))[0]

    depth = netlist.levels(library)
    # level -> edges (destination, source, delay table, slew table, load)
    rows: dict[int, list[tuple]] = {}
    for gate in netlist.gates.values():
        cell = library[gate.cell]
        load = net_load(
            netlist, gate.output, library,
            placement.net_wire_cap(gate.output) if placement else 0.0,
        )
        out = 2 * nets.setdefault(gate.output, len(nets))
        if cell.is_sequential:
            # Clock-to-Q first: one "rise" of the clock reaches both.
            level = 0
            arcs = [(cell.arc_from(cell.clock_pin), _CLOCK, ((0, 1),))]
        else:
            level = depth[gate.name] + 1
            arcs = []
            for pin, net in gate.pins.items():
                try:
                    arc = cell.arc_from(pin)
                except KeyError:
                    continue
                arcs.append((arc, 2 * nets.setdefault(net, len(nets)),
                             _OUT_TRS.get(arc.sense, _NON_UNATE)))
        for arc, src, out_trs in arcs:
            delays = (tid(arc.cell_rise), tid(arc.cell_fall))
            slews = (tid(arc.rise_transition), tid(arc.fall_transition))
            for in_tr, trs in enumerate(out_trs):
                for tr in trs:
                    rows.setdefault(level, []).append(
                        (out + tr, src + in_tr, delays[tr], slews[tr], load)
                    )

    levels = []
    for level in sorted(rows):
        dst, src, delay, slew, load = map(np.array, zip(*rows[level]))
        # Stable: the edges into one key keep pin order, rise before fall.
        order = np.argsort(dst, kind="stable")
        keys, starts, counts = np.unique(dst[order], return_index=True,
                                         return_counts=True)
        levels.append(_Level(src[order], delay[order], slew[order],
                             load[order], keys, starts, counts))
    return _Graph(nets, *_stack([t for _, t in tables.values()]), levels)


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
    graph = _build_graph(netlist, library, placement)
    reduce = np.maximum if latest else np.minimum
    size = 2 * len(graph.nets) + 1
    arrival = np.full(size, -np.inf if latest else np.inf)
    slew = np.zeros(size)
    pred = np.full(size, -1)
    arrival[_CLOCK], slew[_CLOCK] = 0.0, CLOCK_SLEW
    starts = [(net, input_arrival) for net in netlist.inputs] + [
        (net, macro.clk_to_out * macro_scale)
        for macro in netlist.macros.values() for net in macro.outputs
    ]
    for net, t in starts:
        key = 2 * graph.nets[net]
        arrival[key:key + 2], slew[key:key + 2] = t, input_slew

    for lv in graph.levels:
        in_slew = slew[lv.src]
        cand = arrival[lv.src] + graph.lookup(lv.delay, in_slew, lv.load)
        out_slew = graph.lookup(lv.slew, in_slew, lv.load)
        # First best candidate per destination ("strictly better wins").
        best = np.repeat(reduce.reduceat(cand, lv.starts), lv.counts)
        first = np.minimum.reduceat(
            np.where(cand == best, np.arange(len(cand)), len(cand)),
            lv.starts,
        )
        arrival[lv.dst] = cand[first]
        slew[lv.dst] = out_slew[first]
        pred[lv.dst] = lv.src[first]
    return _State(graph.nets, arrival.tolist(), pred.tolist())


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
