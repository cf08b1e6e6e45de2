"""Toy placement: enough physical awareness to price wires.

Commercial place-and-route gives every net a routed RC; our substitute
assigns cells to a levelized grid (topological depth = column, arrival
order = row) and prices each net by half-perimeter wire length (HPWL).
Columns follow data flow, so most nets span a few microns like a real
placement, while high-fanout nets pay proportionally -- the property STA
and dynamic power actually depend on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.synth.netlist import GateNetlist

__all__ = ["Placement", "place"]

#: Wire capacitance per micron of HPWL (F/um), ASAP7-like lower metal.
WIRE_CAP_PER_UM = 0.18e-15

#: Row pitch in um (one standard-cell height).
ROW_PITCH_UM = 0.27

#: Column pitch in um.
COL_PITCH_UM = 0.75


@dataclass
class Placement:
    """Cell coordinates plus wire-load queries."""

    netlist: GateNetlist
    positions: dict[str, tuple[float, float]] = field(default_factory=dict)

    def net_hpwl_um(self, net: str) -> float:
        """Half-perimeter wire length of a net in um."""
        points = []
        driver = self.netlist.driver_of(net)
        if driver and driver in self.positions:
            points.append(self.positions[driver])
        for inst, _pin in self.netlist.loads_of(net):
            if inst in self.positions:
                points.append(self.positions[inst])
        if len(points) < 2:
            return 0.0
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def net_wire_cap(self, net: str) -> float:
        """Estimated routed capacitance of a net in F."""
        return self.net_hpwl_um(net) * WIRE_CAP_PER_UM

    def total_wirelength_um(self) -> float:
        return sum(self.net_hpwl_um(n) for n in self.netlist.all_nets())

    @property
    def bounding_box_um(self) -> tuple[float, float]:
        if not self.positions:
            return (0.0, 0.0)
        xs = [p[0] for p in self.positions.values()]
        ys = [p[1] for p in self.positions.values()]
        return (max(xs), max(ys))


def place(netlist: GateNetlist, library) -> Placement:
    """Levelized placement of all gates and macros."""
    placement = Placement(netlist=netlist)

    depth = netlist.levels(library)

    # Rows per column sized so the die is roughly square.
    columns: dict[int, int] = {}
    for name in sorted(depth):
        col = depth[name]
        row = columns.get(col, 0)
        columns[col] = row + 1
        placement.positions[name] = (col * COL_PITCH_UM, row * ROW_PITCH_UM)

    # Macros park beyond the last column.
    last_col = (max(columns) + 2) if columns else 0
    for i, name in enumerate(sorted(netlist.macros)):
        placement.positions[name] = (
            last_col * COL_PITCH_UM,
            i * 20.0 * ROW_PITCH_UM,
        )
    return placement
