"""Nonlinear delay-model (NLDM) tables and timing arcs.

The characterization flow fills 7x7 tables indexed by input slew and output
load -- exactly the table structure of the Liberty NLDM standard the paper
emits.  STA reads them back through bilinear interpolation with clamped
extrapolation at the table edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NLDMTable", "TimingArc", "DEFAULT_SLEW_INDEX", "DEFAULT_LOAD_INDEX",
           "bilinear"]

#: Default 7-point input-slew axis in seconds (10 %-90 %).
DEFAULT_SLEW_INDEX: tuple[float, ...] = (
    2e-12, 4e-12, 8e-12, 16e-12, 32e-12, 64e-12, 128e-12
)

#: Default 7-point output-load axis in farads.
DEFAULT_LOAD_INDEX: tuple[float, ...] = (
    0.2e-15, 0.5e-15, 1e-15, 2e-15, 4e-15, 8e-15, 16e-15
)


def bilinear(slews, loads, values, table, slew, load):
    """Bilinear interpolation in ``values[table]``, tables stacked on one
    (slews, loads) grid; ``table``, ``slew`` and ``load`` broadcast.

    Clamping (rather than extrapolating) matches signoff-tool behaviour
    for mildly out-of-range queries and keeps STA robust.
    """
    s = np.clip(slew, slews[0], slews[-1])
    c = np.clip(load, loads[0], loads[-1])
    i = np.clip(np.searchsorted(slews, s) - 1, 0, len(slews) - 2)
    j = np.clip(np.searchsorted(loads, c) - 1, 0, len(loads) - 2)
    s0, s1 = slews[i], slews[i + 1]
    c0, c1 = loads[j], loads[j + 1]
    fs = (s - s0) / (s1 - s0)
    fc = (c - c0) / (c1 - c0)
    return (
        values[table, i, j] * (1 - fs) * (1 - fc)
        + values[table, i + 1, j] * fs * (1 - fc)
        + values[table, i, j + 1] * (1 - fs) * fc
        + values[table, i + 1, j + 1] * fs * fc
    )


@dataclass
class NLDMTable:
    """A 2-D lookup table over (input slew, output load)."""

    slews: np.ndarray
    loads: np.ndarray
    values: np.ndarray  # shape (len(slews), len(loads))

    def __post_init__(self) -> None:
        self.slews = np.asarray(self.slews, dtype=float)
        self.loads = np.asarray(self.loads, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.slews), len(self.loads)):
            raise ValueError(
                f"values shape {self.values.shape} does not match index "
                f"lengths ({len(self.slews)}, {len(self.loads)})"
            )
        if np.any(np.diff(self.slews) <= 0) or np.any(np.diff(self.loads) <= 0):
            raise ValueError("table indices must strictly increase")

    def lookup(self, slew, load):
        """Bilinear interpolation; clamps outside the characterized box.

        Accepts scalars (returns ``float``) or array-valued slew/load
        queries (broadcast together; returns an ``ndarray``).
        """
        out = bilinear(self.slews, self.loads, self.values[None], 0,
                       slew, load)
        return float(out) if np.ndim(out) == 0 else out

    @classmethod
    def from_function(
        cls,
        fn,
        slews: tuple[float, ...] = DEFAULT_SLEW_INDEX,
        loads: tuple[float, ...] = DEFAULT_LOAD_INDEX,
    ) -> "NLDMTable":
        """Fill a table by evaluating ``fn(slew, load)`` on the grid."""
        values = np.array([[fn(s, c) for c in loads] for s in slews])
        return cls(np.asarray(slews), np.asarray(loads), values)

    @property
    def vmin(self) -> float:
        return float(self.values.min())

    @property
    def vmax(self) -> float:
        return float(self.values.max())


@dataclass
class TimingArc:
    """One input-pin -> output-pin timing arc with its four NLDM tables.

    ``sense`` is ``"positive_unate"`` (input rise -> output rise),
    ``"negative_unate"`` or ``"non_unate"`` (XOR-class).  For sequential
    cells the related pin is the clock and ``timing_type`` records e.g.
    ``rising_edge``.
    """

    related_pin: str
    sense: str
    cell_rise: NLDMTable
    cell_fall: NLDMTable
    rise_transition: NLDMTable
    fall_transition: NLDMTable
    timing_type: str = "combinational"
    when: str = ""
    """Optional state condition the arc was characterized under."""

    def delay(self, transition: str, slew, load):
        """Arc delay for an output ``"rise"`` or ``"fall"``, in seconds.

        Like :meth:`NLDMTable.lookup`, slew/load may be scalars or
        broadcastable arrays.
        """
        table = self.cell_rise if transition == "rise" else self.cell_fall
        return table.lookup(slew, load)

    def output_slew(self, transition: str, slew, load):
        """Output transition time for an output rise/fall, in seconds."""
        table = (
            self.rise_transition if transition == "rise" else self.fall_transition
        )
        return table.lookup(slew, load)

    def worst_delay(self, slew: float, load: float) -> float:
        """max(rise, fall) delay -- what a quick STA bound uses."""
        return max(self.delay("rise", slew, load),
                   self.delay("fall", slew, load))
