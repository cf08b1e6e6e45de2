"""Standard-cell templates: multi-stage static CMOS over stack networks.

A combinational cell is an ordered list of :class:`Stage` objects.  Each
stage is one static CMOS gate: a pull-down network (PDN) :class:`Stack`
plus its dual pull-up, sized in fins.  Stage inputs are either cell inputs
or outputs of earlier stages, so the cell's boolean function is the
feed-forward composition of per-stage complements.

Sequential cells (flip-flops, latches) are modelled as the classic
NAND-based master-slave structures; their timing is derived from the
constituent gate stages by the characterizer rather than by closed-loop
simulation (see :mod:`repro.cells.characterize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.logic import Expr, NOT, VAR, truth_table
from repro.cells.stacks import Stack

__all__ = ["Stage", "StandardCell", "SequentialCell", "stack_expr"]

#: Layout area per fin in um^2 (ASAP7-flavoured rough constant).
AREA_PER_FIN_UM2 = 0.0216

#: Default P/N fin ratio compensating the mobility gap.
PN_RATIO = 1.3


def stack_expr(stack: Stack) -> Expr:
    """Boolean conduction expression of a pull-down network.

    Series composes with AND, parallel with OR; a conducting PDN pulls the
    stage output low, so the *stage* function is the complement.
    """
    if stack.kind == "device":
        return VAR(stack.input_name)  # type: ignore[arg-type]
    sub = [stack_expr(c) for c in stack.children]
    op = "and" if stack.kind == "series" else "or"
    return Expr(op, args=tuple(sub))


@dataclass(frozen=True)
class Stage:
    """One static CMOS gate inside a cell."""

    output: str
    pdn: Stack
    nfin_n: int = 0  # 0 => auto-size from stack height
    nfin_p: int = 0

    def sized(self, drive: int) -> "Stage":
        """Return a copy with fins resolved for the given drive strength."""
        hn = self.pdn.height()
        hp = self.pdn.dual().height()
        nfin_n = self.nfin_n or hn
        nfin_p = self.nfin_p or max(1, math.ceil(PN_RATIO * hp))
        return Stage(
            output=self.output,
            pdn=self.pdn,
            nfin_n=nfin_n * drive,
            nfin_p=nfin_p * drive,
        )

    @property
    def expr(self) -> Expr:
        """Stage output as a function of its immediate inputs."""
        return NOT(stack_expr(self.pdn))


@dataclass(frozen=True)
class StandardCell:
    """A combinational standard-cell template at one drive strength."""

    name: str
    inputs: tuple[str, ...]
    output: str
    stages: tuple[Stage, ...]
    drive: int = 1
    footprint: str = ""
    """Logical family name shared by all drive variants (e.g. ``NAND2``)."""

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError(f"{self.name}: cell needs at least one stage")
        if self.stages[-1].output != self.output:
            raise ValueError(
                f"{self.name}: last stage must drive the cell output"
            )
        if self.drive < 1:
            raise ValueError(f"{self.name}: drive must be >= 1")
        available = set(self.inputs)
        for stage in self.stages:
            missing = set(stage.pdn.inputs()) - available
            if missing:
                raise ValueError(
                    f"{self.name}: stage {stage.output!r} uses undefined "
                    f"signals {sorted(missing)}"
                )
            available.add(stage.output)

    # ------------------------------------------------------------------ #
    @cached_property
    def sized_stages(self) -> tuple[Stage, ...]:
        """Stages with fins resolved for this cell's drive (derived once:
        the cell is frozen)."""
        return tuple(s.sized(self.drive) for s in self.stages)

    @property
    def is_sequential(self) -> bool:
        return False

    def function(self) -> Expr:
        """The cell's boolean function over its input pins."""
        exprs: dict[str, Expr] = {name: VAR(name) for name in self.inputs}

        def substitute(e: Expr) -> Expr:
            if e.op == "var":
                return exprs[e.name]  # type: ignore[index]
            return Expr(e.op, e.name, tuple(substitute(a) for a in e.args))

        for stage in self.stages:
            exprs[stage.output] = substitute(stage.expr)
        return exprs[self.output]

    def truth(self) -> int:
        """Packed truth table over ``self.inputs`` (LSB = first input)."""
        return truth_table(self.function(), self.inputs)

    def evaluate(self, assignment: dict[str, bool]) -> bool:
        """Evaluate the cell output for a full input assignment."""
        return self.function().evaluate(assignment)

    # ------------------------------------------------------------------ #
    def transistor_count(self) -> int:
        """Total devices (both networks, all stages)."""
        return sum(2 * s.pdn.device_count() for s in self.stages)

    def total_fins(self) -> int:
        """Total fins, the area- and leakage-relevant size measure."""
        total = 0
        for s in self.sized_stages:
            total += s.pdn.device_count() * s.nfin_n
            total += s.pdn.dual().device_count() * s.nfin_p
        return total

    @property
    def area_um2(self) -> float:
        """Estimated layout area in um^2."""
        return self.total_fins() * AREA_PER_FIN_UM2

    def loads_of(self, signal: str) -> list[tuple[Stage, int, int]]:
        """Stages that consume ``signal``: (stage, n-fanin, p-fanin)."""
        out = []
        for s in self.sized_stages:
            n_fanin = s.pdn.input_fanin(signal)
            if n_fanin:
                p_fanin = s.pdn.dual().input_fanin(signal)
                out.append((s, n_fanin, p_fanin))
        return out

    def with_drive(self, drive: int, name: str | None = None) -> "StandardCell":
        """Return the same footprint at another drive strength."""
        return StandardCell(
            name=name or f"{self.footprint or self.name}_X{drive}",
            inputs=self.inputs,
            output=self.output,
            stages=self.stages,
            drive=drive,
            footprint=self.footprint or self.name,
        )


@dataclass(frozen=True)
class SequentialCell:
    """A positive-edge D flip-flop (or level latch) template.

    The template records the internal gate structure abstractly: the
    number of gate stages between clock and output, and between data and
    the capture point.  The characterizer turns those into clk->Q delay,
    setup and hold from the library's own NAND2 timing.
    """

    name: str
    data_pin: str = "D"
    clock_pin: str = "CK"
    output: str = "Q"
    reset_pin: str | None = None
    set_pin: str | None = None
    scan_pin: str | None = None
    drive: int = 1
    edge: str = "rising"  # or "level" for a latch
    clk_to_q_stages: int = 2
    setup_stages: int = 3
    hold_stages: int = 1
    footprint: str = ""

    def __post_init__(self) -> None:
        if self.drive < 1:
            raise ValueError(f"{self.name}: drive must be >= 1")
        if self.edge not in ("rising", "falling", "level"):
            raise ValueError(f"{self.name}: bad edge {self.edge!r}")

    @property
    def is_sequential(self) -> bool:
        return True

    @property
    def inputs(self) -> tuple[str, ...]:
        pins = [self.data_pin, self.clock_pin]
        for extra in (self.reset_pin, self.set_pin, self.scan_pin):
            if extra:
                pins.append(extra)
        return tuple(pins)

    def transistor_count(self) -> int:
        """Device count of the canonical NAND-based master-slave."""
        base = 6 * 4  # six 2-input NAND equivalents
        extras = 0
        if self.reset_pin:
            extras += 4
        if self.set_pin:
            extras += 4
        if self.scan_pin:
            extras += 8  # input mux
        return base + extras

    def total_fins(self) -> int:
        # Each device ~1 NMOS fin + PN_RATIO PMOS fins, times drive on the
        # output stage only (approximated as +2 fins per extra drive).
        return int(self.transistor_count() * (1 + PN_RATIO) / 2) + 4 * (
            self.drive - 1
        )

    @property
    def area_um2(self) -> float:
        return self.total_fins() * AREA_PER_FIN_UM2

    def with_drive(self, drive: int, name: str | None = None) -> "SequentialCell":
        import dataclasses

        return dataclasses.replace(
            self,
            name=name or f"{self.footprint or self.name}_X{drive}",
            drive=drive,
            footprint=self.footprint or self.name,
        )
