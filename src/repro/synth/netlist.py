"""Gate-level netlist IR: what synthesis produces and STA/power consume.

A :class:`GateNetlist` is a directed graph of cell instances connected by
named nets.  Cell semantics (function, timing, power) live in the
characterized library; the netlist only records structure:

* ``Gate`` -- one instance: library cell name, pin->net map, output net,
  plus a ``module`` tag used by the activity-based power model;
* ``Macro`` -- a hard block (SRAM array) with fixed port timing, matching
  how the paper consumes ASAP7 SRAM IP ("only include the physical size
  and timing but not their power", which we add from the SRAM model);
* sequential cells (library ``is_sequential``) break combinational cycles:
  their D/CK pins are timing endpoints and Q pins are start points.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import NetlistError

__all__ = ["Gate", "Macro", "GateNetlist", "CONST0", "CONST1"]

CONST0 = "const0"
"""Reserved net name tied low (driver ``@const``)."""

CONST1 = "const1"
"""Reserved net name tied high (driver ``@const``)."""


@dataclass
class Gate:
    """One placed cell instance."""

    name: str
    cell: str
    pins: dict[str, str]
    output: str
    module: str = "core"

    def input_nets(self) -> list[str]:
        return list(self.pins.values())


@dataclass
class Macro:
    """A hard macro (SRAM array): fixed timing, ports, size.

    ``clk_to_out`` is the access delay from clock edge to data-out;
    ``input_setup`` the setup requirement on address/data-in pins.  Both
    are in seconds and are *scaled by the library corner* when the STA
    runs (transistors inside the macro slow down like everything else).
    """

    name: str
    kind: str
    inputs: list[str]
    outputs: list[str]
    clk_to_out: float
    input_setup: float
    bits: int
    module: str = "sram"


class GateNetlist:
    """A flat mapped netlist with named nets."""

    def __init__(self, name: str):
        self.name = name
        self.gates: dict[str, Gate] = {}
        self.macros: dict[str, Macro] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.clock: str | None = None
        self._drivers: dict[str, str] = {}
        self._loads: dict[str, list[tuple[str, str]]] = {}
        self._counter = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def new_net(self, hint: str = "n") -> str:
        self._counter += 1
        return f"{hint}_{self._counter}"

    def ensure_constants(self) -> None:
        """Register the tie-low/tie-high nets (idempotent)."""
        self._drivers.setdefault(CONST0, "@const")
        self._drivers.setdefault(CONST1, "@const")

    def add_input(self, net: str) -> str:
        if net in self._drivers:
            raise NetlistError(f"net {net!r} already driven",
                                   element=net)
        self.inputs.append(net)
        self._drivers[net] = "@input"
        return net

    def add_output(self, net: str) -> None:
        self.outputs.append(net)

    def set_clock(self, net: str) -> None:
        self.clock = net

    def add_gate(
        self,
        cell: str,
        pins: dict[str, str],
        output: str | None = None,
        name: str | None = None,
        module: str = "core",
    ) -> str:
        """Instantiate a cell; returns its output net."""
        output = output or self.new_net(cell.split("_")[0].lower())
        name = name or f"g{len(self.gates)}"
        if name in self.gates or name in self.macros:
            raise NetlistError(f"duplicate instance name {name!r}",
                               element=name)
        if output in self._drivers:
            raise NetlistError(f"net {output!r} already driven",
                               element=output)
        gate = Gate(name=name, cell=cell, pins=dict(pins), output=output,
                    module=module)
        self.gates[name] = gate
        self._drivers[output] = name
        for pin, net in pins.items():
            self._loads.setdefault(net, []).append((name, pin))
        return output

    def add_macro(self, macro: Macro) -> None:
        if macro.name in self.macros or macro.name in self.gates:
            raise NetlistError(f"duplicate instance name {macro.name!r}",
                               element=macro.name)
        self.macros[macro.name] = macro
        for net in macro.outputs:
            if net in self._drivers:
                raise NetlistError(f"net {net!r} already driven",
                                   element=net)
            self._drivers[net] = macro.name
        for net in macro.inputs:
            self._loads.setdefault(net, []).append((macro.name, "@macro_in"))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def driver_of(self, net: str) -> str | None:
        """Instance name driving a net ('@input' for primary inputs)."""
        return self._drivers.get(net)

    def loads_of(self, net: str) -> list[tuple[str, str]]:
        """(instance, pin) pairs loading a net."""
        return self._loads.get(net, [])

    def fanout(self, net: str) -> int:
        return len(self.loads_of(net))

    def all_nets(self) -> list[str]:
        nets = set(self._drivers) | set(self._loads)
        return sorted(nets)

    def undriven_nets(self) -> list[str]:
        """Nets consumed but never driven -- a connectivity lint."""
        return sorted(set(self._loads) - set(self._drivers))

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def count_by_cell(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.gates.values():
            out[g.cell] = out.get(g.cell, 0) + 1
        return dict(sorted(out.items()))

    def count_by_module(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for g in self.gates.values():
            out[g.module] = out.get(g.module, 0) + 1
        return dict(sorted(out.items()))

    # ------------------------------------------------------------------ #
    # Topological traversal
    # ------------------------------------------------------------------ #
    def topological_gates(self, library) -> list[Gate]:
        """Combinational gates in dependency order.

        Sequential cells and macros are cut points: their outputs count as
        primary starts, their inputs as ends.  Raises on combinational
        loops.
        """
        seq_gates = {
            name
            for name, g in self.gates.items()
            if g.cell in library and library[g.cell].is_sequential
        }
        comb = [g for name, g in self.gates.items() if name not in seq_gates]
        # in-degree over combinational dependencies only
        indeg: dict[str, int] = {}
        dependents: dict[str, list[str]] = {}
        for g in comb:
            count = 0
            for net in g.input_nets():
                drv = self._drivers.get(net)
                if drv and drv in self.gates and drv not in seq_gates:
                    count += 1
                    dependents.setdefault(drv, []).append(g.name)
            indeg[g.name] = count
        ready = deque(sorted(n for n, d in indeg.items() if d == 0))
        order: list[Gate] = []
        while ready:
            name = ready.popleft()
            order.append(self.gates[name])
            for dep in dependents.get(name, []):
                indeg[dep] -= 1
                if indeg[dep] == 0:
                    ready.append(dep)
        if len(order) != len(comb):
            stuck = [n for n, d in indeg.items() if d > 0][:5]
            raise NetlistError(
                f"combinational loop detected involving {stuck} ...",
                element=stuck[0] if stuck else "")
        return order

    def levels(self, library) -> dict[str, int]:
        """Topological depth of every gate: the placement column and the
        STA propagation order.  Flops sit at 0, a combinational gate one
        deeper than its deepest gate driver (0 with none)."""
        depth = {g.name: 0 for g in self.sequential_gates(library)}
        for gate in self.topological_gates(library):
            d = 0
            for net in gate.input_nets():
                drv = self._drivers.get(net)
                if drv in depth:
                    d = max(d, depth[drv] + 1)
            depth[gate.name] = d
        return depth

    def sequential_gates(self, library) -> list[Gate]:
        """All flip-flop/latch instances."""
        return [
            g
            for g in self.gates.values()
            if g.cell in library and library[g.cell].is_sequential
        ]

    # ------------------------------------------------------------------ #
    def area_um2(self, library) -> float:
        """Total cell area (macros excluded)."""
        return sum(library[g.cell].area_um2 for g in self.gates.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GateNetlist({self.name!r}, {len(self.gates)} gates, "
            f"{len(self.macros)} macros, {len(self.all_nets())} nets)"
        )
