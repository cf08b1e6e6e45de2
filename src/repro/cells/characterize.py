"""Standard-cell characterization: the PrimeLib/PrimeSim substitute.

Given a cell catalog and a pair of calibrated FinFET models, this module
fills NLDM timing tables (7x7 slew/load grids for every timing arc), pin
capacitances, state-dependent leakage and switching energy -- at any
temperature the compact model supports.  Two engines are provided:

* ``analytic`` (default) -- effective-current / RC delay model evaluated
  directly from the compact model: one mesh evaluation of the stage DAG
  over all slew x load points per arc and input edge.  The full ~200-cell
  catalog characterizes at two temperatures in under a second.  All
  temperature dependence flows through the compact model (Ieff, Ioff), so
  300 K vs 10 K *ratios* -- the paper's object of study -- are preserved.
* ``spice`` -- full transient simulation of the transistor netlist via
  :mod:`repro.spice`, each arc's table points solved as a handful of
  lockstep batched-grid transients.  Used for representative cells and
  for validating the analytic engine (see
  tests/cells/test_engines_agree.py).

The analytic constants (`REFF_GAMMA`, `SLEW_GAMMA`, `SLEW_COUPLING`,
`SLEW_FEEDTHROUGH`) were fitted once against the SPICE engine on
inverter/NAND cells at 300 K.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.cells.cell import SequentialCell, Stage, StandardCell
from repro.cells.nldm import (
    DEFAULT_LOAD_INDEX,
    DEFAULT_SLEW_INDEX,
    NLDMTable,
    TimingArc,
)
from repro.cells.stacks import device, series
from repro.device.finfet import FinFET
from repro.device.params import FinFETParams

__all__ = [
    "CharacterizationConfig",
    "CellCharacterizer",
    "GridBatch",
    "GridPoint",
    "TechModels",
]

# Analytic-engine constants, fitted against the SPICE engine.
REFF_GAMMA = 0.443
"""Effective switching resistance: Reff = REFF_GAMMA * Vdd / Ieff.
Fitted by least squares against SPICE transients of INV/NAND2/NOR2."""

SLEW_GAMMA = 1.11
"""Output slew = SLEW_GAMMA * Reff * Ctot (fitted against SPICE)."""

SLEW_COUPLING = 0.204
"""Fraction of the input slew added to the stage delay (fitted)."""

SLEW_FEEDTHROUGH = 0.21
"""Fraction of the input slew reaching the output slew (fitted)."""

SHORT_CIRCUIT_FACTOR = 1.15
"""Multiplier on CV^2/2 accounting for short-circuit current."""

# Per-transient solver budgets for the SPICE engine.  The first attempt
# gets room to work; the retry is deliberately tightened (fail fast at a
# finer timestep) because a solve that needs more than this is cheaper to
# replace with the analytic estimate than to grind out.
SPICE_POINT_BUDGET_S = 30.0
SPICE_RETRY_BUDGET_S = 10.0

# One batched-grid solve covers up to a whole arc's worth of points, so
# it gets a correspondingly larger wall-clock budget than a single point.
SPICE_GRID_BUDGET_S = 120.0

GRID_STEP_REPLICA_TAX = 0.04
"""Marginal per-replica cost of one lockstep Newton step, relative to the
replica-independent base cost (the compact-model call dominates and its
cost is nearly size-independent at characterization batch sizes).  Used
only by the batch planner's cost model when deciding whether merging two
load rows onto one union time grid is cheaper than solving them apart."""


@dataclass(frozen=True)
class TechModels:
    """The n/p device models a library build characterizes against.

    Device instances are memoized per (polarity, nfin): every SPICE
    table point of a library build then shares one :class:`FinFET` per
    sizing, so the model's temperature-derived cache (vth/vsat/mobility
    terms keyed by ``(id(params), temperature_k)``) is warm across all
    slew/load points and cells, and the MNA kernel batches all
    same-sized transistors of a netlist into one compact-model call.
    """

    nfet: FinFETParams
    pfet: FinFETParams
    _devices: dict = field(default_factory=dict, repr=False, compare=False)

    def n_device(self, nfin: int) -> FinFET:
        return self._device("n", nfin)

    def p_device(self, nfin: int) -> FinFET:
        return self._device("p", nfin)

    def _device(self, polarity: str, nfin: int) -> FinFET:
        dev = self._devices.get((polarity, nfin))
        if dev is None:
            params = self.nfet if polarity == "n" else self.pfet
            dev = FinFET(params.copy(nfin=nfin))
            self._devices[(polarity, nfin)] = dev
        return dev


@dataclass(frozen=True, kw_only=True)
class CharacterizationConfig:
    """Operating conditions and table axes for one library build."""

    temperature_k: float = 300.0
    vdd: float = 0.70
    slew_index: tuple[float, ...] = DEFAULT_SLEW_INDEX
    load_index: tuple[float, ...] = DEFAULT_LOAD_INDEX
    engine: str = "analytic"

    def __post_init__(self) -> None:
        from repro.errors import ConfigError

        if self.engine not in ("analytic", "spice"):
            raise ConfigError(f"unknown engine {self.engine!r}",
                              field="engine")
        if not np.isfinite(self.temperature_k) or self.temperature_k <= 0:
            raise ConfigError(
                f"temperature_k must be finite and > 0 "
                f"(got {self.temperature_k!r})", field="temperature_k")
        if not np.isfinite(self.vdd) or self.vdd <= 0:
            raise ConfigError(f"vdd must be finite and > 0 "
                              f"(got {self.vdd!r})", field="vdd")
        for axis in ("slew_index", "load_index"):
            values = getattr(self, axis)
            if not values or any(not np.isfinite(v) or v <= 0
                                 for v in values):
                raise ConfigError(
                    f"{axis} needs finite positive entries (got {values!r})",
                    field=axis)

    # -- provenance / cache identity ---------------------------------- #
    def to_dict(self) -> dict:
        """Plain-data view; round-trips through :meth:`from_dict`."""
        from repro.runtime.digest import config_to_dict

        return config_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CharacterizationConfig":
        from repro.runtime.digest import config_from_dict

        return config_from_dict(cls, data)

    def config_digest(self) -> str:
        """Stable content hash: the cache key / provenance stamp."""
        from repro.runtime.digest import stable_digest

        return stable_digest(self)


@dataclass
class CharacterizedPin:
    """An input pin's capacitance in F."""

    name: str
    capacitance: float


@dataclass
class CharacterizedCell:
    """Everything the library stores about one cell."""

    name: str
    footprint: str
    area_um2: float
    is_sequential: bool
    inputs: list[CharacterizedPin]
    output: str
    arcs: list[TimingArc] = field(default_factory=list)
    leakage_by_state: dict[str, float] = field(default_factory=dict)
    leakage_avg: float = 0.0
    switching_energy: float = 0.0
    truth: int | None = None
    input_order: tuple[str, ...] = ()
    notes: list[str] = field(default_factory=list)
    """Degradation notes: non-empty when any arc point needed the solver
    retry ladder or the analytic fallback (see build_library)."""
    # Sequential-only attributes (seconds):
    setup_time: float = 0.0
    hold_time: float = 0.0
    clock_pin: str = ""
    data_pin: str = ""

    def pin_capacitance(self, pin: str) -> float:
        for p in self.inputs:
            if p.name == pin:
                return p.capacitance
        raise KeyError(f"{self.name}: no input pin {pin!r}")

    def arc_from(self, pin: str) -> TimingArc:
        for arc in self.arcs:
            if arc.related_pin == pin:
                return arc
        raise KeyError(f"{self.name}: no timing arc from pin {pin!r}")

    @property
    def worst_arc_delay_nominal(self) -> float:
        """max arc delay at mid slew/load -- a quick cell-speed metric."""
        if not self.arcs:
            return 0.0
        return max(a.worst_delay(16e-12, 2e-15) for a in self.arcs)


@dataclass(frozen=True)
class GridPoint:
    """One (slew, load, edge) table point scheduled into a grid batch."""

    i: int
    """Row index into ``slew_index``."""
    j: int
    """Column index into ``load_index``."""
    in_tr: str
    out_tr: str
    slew: float
    load: float
    est_d: float
    est_s: float
    t_stop: float
    """The point's own stop time (what a per-point replay uses)."""
    dt: float
    """The point's own step (what a per-point replay uses)."""
    wave_map: dict

    @property
    def steps(self) -> int:
        return max(1, int(np.ceil(self.t_stop / self.dt - 1e-9)))


@dataclass(frozen=True)
class GridBatch:
    """A set of points solved together on one union time grid.

    The grid is the union of the member points' grids: ``t_stop`` is the
    max over members (every transition completes) and ``dt`` the min
    (the tightest accuracy requirement wins).
    """

    points: tuple[GridPoint, ...]
    t_stop: float
    dt: float

    @property
    def steps(self) -> int:
        return max(1, int(np.ceil(self.t_stop / self.dt - 1e-9)))

    def cost(self) -> float:
        """Predicted lockstep work, in units of one bare Newton step."""
        return self.steps * (1.0 + GRID_STEP_REPLICA_TAX * len(self.points))

    def merged(self, other: "GridBatch") -> "GridBatch":
        return GridBatch(
            points=self.points + other.points,
            t_stop=max(self.t_stop, other.t_stop),
            dt=min(self.dt, other.dt),
        )


class CellCharacterizer:
    """Characterizes catalog cells under one configuration."""

    def __init__(self, models: TechModels, config: CharacterizationConfig):
        self.models = models
        self.config = config
        t = config.temperature_k
        # Per-fin figures from the compact model -- the only place
        # temperature enters the analytic engine.
        n1 = models.n_device(1)
        p1 = models.p_device(1)
        self._ieff_n = n1.effective_current(t, config.vdd)
        self._ieff_p = p1.effective_current(t, config.vdd)
        self._ioff_n = n1.ioff(t, config.vdd)
        self._ioff_p = p1.ioff(t, config.vdd)
        self._cg_n = n1.gate_capacitance()
        self._cg_p = p1.gate_capacitance()
        self._cd_n = n1.drain_capacitance()
        self._cd_p = p1.drain_capacitance()

    # ------------------------------------------------------------------ #
    # Structural helpers
    # ------------------------------------------------------------------ #
    def pin_capacitance(self, cell: StandardCell, pin: str) -> float:
        """Input capacitance of one pin: all gates it drives."""
        total = 0.0
        for stage, n_fanin, p_fanin in cell.loads_of(pin):
            total += n_fanin * stage.nfin_n * self._cg_n
            total += p_fanin * stage.nfin_p * self._cg_p
        return total

    def _stage_parasitic_cap(self, stage: Stage) -> float:
        """Diffusion capacitance at the stage output node."""
        n_branches = (
            len(stage.pdn.children) if stage.pdn.kind == "parallel" else 1
        )
        pun = stage.pdn.dual()
        p_branches = len(pun.children) if pun.kind == "parallel" else 1
        return (
            n_branches * stage.nfin_n * self._cd_n
            + p_branches * stage.nfin_p * self._cd_p
        )

    def _stage_resistance(self, stage: Stage, transition: str) -> float:
        """Effective switching resistance for an output rise or fall."""
        if transition == "fall":
            height = stage.pdn.height()
            return REFF_GAMMA * self.config.vdd * height / (
                self._ieff_n * stage.nfin_n
            )
        height = stage.pdn.dual().height()
        return REFF_GAMMA * self.config.vdd * height / (
            self._ieff_p * stage.nfin_p
        )

    def _stage_input_cap(self, stage: Stage, signal: str) -> float:
        n_fanin = stage.pdn.input_fanin(signal)
        p_fanin = stage.pdn.dual().input_fanin(signal)
        return n_fanin * stage.nfin_n * self._cg_n + p_fanin * stage.nfin_p * self._cg_p

    def _stage_output_load(
        self, cell: StandardCell, stage: Stage, external_load: float
    ) -> float:
        """Total load at a stage output: parasitics + internal fanout
        gate caps + the external load if this is the cell output."""
        load = self._stage_parasitic_cap(stage)
        for consumer in cell.sized_stages:
            load += self._stage_input_cap(consumer, stage.output)
        if stage.output == cell.output:
            load += external_load
        return load

    def _stage_delay_slew(
        self, stage: Stage, transition: str, slew_in: float, load: float
    ) -> tuple[float, float]:
        """(propagation delay, output slew) of one stage."""
        r = self._stage_resistance(stage, transition)
        delay = np.log(2.0) * r * load + SLEW_COUPLING * slew_in
        slew_out = SLEW_GAMMA * r * load + SLEW_FEEDTHROUGH * slew_in
        return delay, slew_out

    # ------------------------------------------------------------------ #
    # Analytic timing: worst-path DP over the stage DAG
    # ------------------------------------------------------------------ #
    def _arc_timing_analytic(
        self,
        cell: StandardCell,
        pin: str,
        input_transition: str,
        slews: np.ndarray,
        loads: np.ndarray,
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Worst (arrival, slew) per output transition for one input edge,
        on the mesh that ``slews`` and ``loads`` broadcast to.

        Returns ``{"rise": (delay, slew), ...}`` with only the transitions
        that can actually occur at the output.  Where two paths meet, the
        strictly later arrival wins and keeps its slew.
        """
        # state: (signal, transition) -> (arrival, slew)
        state: dict[tuple[str, str], tuple] = {
            (pin, input_transition): (0.0, slews)
        }
        for stage in cell.sized_stages:
            stage_load = self._stage_output_load(cell, stage, loads)
            for signal in stage.pdn.inputs():
                for tr in ("rise", "fall"):
                    if (signal, tr) not in state:
                        continue
                    arrival, slew = state[(signal, tr)]
                    out_tr = "fall" if tr == "rise" else "rise"
                    d, s = self._stage_delay_slew(stage, out_tr, slew, stage_load)
                    cand = (arrival + d, s)
                    key = (stage.output, out_tr)
                    if key in state:
                        later = cand[0] > state[key][0]
                        cand = (np.where(later, cand[0], state[key][0]),
                                np.where(later, cand[1], state[key][1]))
                    state[key] = cand
        return {tr: state[(cell.output, tr)] for tr in ("rise", "fall")
                if (cell.output, tr) in state}

    def _arc_meshes(self, cell: StandardCell, pin: str) -> dict[str, dict]:
        """Per input edge, the analytic timing on the whole table grid."""
        slews = np.asarray(self.config.slew_index)[:, None]
        loads = np.asarray(self.config.load_index)[None, :]
        return {
            in_tr: self._arc_timing_analytic(cell, pin, in_tr, slews, loads)
            for in_tr in ("rise", "fall")
        }

    def _characterize_arc_analytic(
        self, cell: StandardCell, pin: str
    ) -> TimingArc:
        tables = self._blank_tables()
        senses = set()
        for in_tr, mesh in self._arc_meshes(cell, pin).items():
            for out_tr, (delay, slew) in mesh.items():
                senses.add((in_tr, out_tr))
                self._keep_worst(tables, out_tr, ..., delay, slew)
        return self._finish_arc(pin, senses, tables)

    # ------------------------------------------------------------------ #
    # SPICE timing
    # ------------------------------------------------------------------ #
    def _sensitize(self, cell: StandardCell, pin: str) -> dict[str, bool] | None:
        """Find side-input values making the output follow ``pin``."""
        others = [p for p in cell.inputs if p != pin]
        fn = cell.function()
        for bits in itertools.product([False, True], repeat=len(others)):
            asg = dict(zip(others, bits))
            lo = fn.evaluate({**asg, pin: False})
            hi = fn.evaluate({**asg, pin: True})
            if lo != hi:
                return asg
        return None

    def build_cell_circuit(
        self,
        cell: StandardCell,
        load: float,
        input_map: dict[str, object],
    ):
        """Build the transistor-level circuit for one cell instance.

        ``input_map`` maps pin names to waveform objects (sources).
        Returns the configured :class:`~repro.spice.netlist.Circuit`.
        """
        from repro.spice import Circuit, DC

        cfg = self.config
        circuit = Circuit(cell.name, temperature_k=cfg.temperature_k)
        circuit.add_vsource("vdd_src", "vdd", "0", DC(cfg.vdd))
        for pin, wave in input_map.items():
            circuit.add_vsource(f"src_{pin}", pin, "0", wave)
        for k, stage in enumerate(cell.sized_stages):
            nmodel = self.models.n_device(stage.nfin_n)
            pmodel = self.models.p_device(stage.nfin_p)
            stage.pdn.emit(circuit, nmodel, "0", stage.output, f"s{k}n")
            stage.pdn.dual().emit(
                circuit, pmodel, "vdd", stage.output, f"s{k}p"
            )
        if load > 0:
            circuit.add_capacitor("c_load", cell.output, "0", load)
        return circuit

    def _solve_point_resilient(
        self,
        cell: StandardCell,
        pin: str,
        circuit,
        t_stop: float,
        dt: float,
        notes: list[str],
    ):
        """One point's transient, alone on its own grid, with the
        characterization retry ladder.

        Attempt the configured step as a single-circuit (G = 1) solve
        under a wall-clock budget; on solver failure retry once at half
        the step under a *tightened* budget
        (a finer grid gives Newton better per-step initial guesses, and
        a solve that still will not go is not worth more wall-clock);
        returns ``None`` when both fail so the caller can fall back to
        the analytic estimate for this table point.
        """
        from repro.errors import SolverError
        from repro.spice import SolverBudget, transient

        record = [pin, cell.output]
        try:
            return transient(
                circuit, t_stop, dt, record=record,
                budget=SolverBudget(max_seconds=SPICE_POINT_BUDGET_S),
            )
        except SolverError as exc:
            first = f"{type(exc).__name__}: {exc}"
        telemetry.count("cells.spice_retries")
        try:
            result = transient(
                circuit, t_stop, dt / 2.0, record=record,
                budget=SolverBudget(max_seconds=SPICE_RETRY_BUDGET_S),
            )
            notes.append(
                f"arc {pin}: retried at dt/2 after {first}"
            )
            return result
        except SolverError as exc:
            notes.append(
                f"arc {pin}: analytic fallback ({first}; retry "
                f"{type(exc).__name__}: {exc})"
            )
            telemetry.count("cells.point_fallbacks")
            return None

    def _blank_tables(self) -> dict[str, np.ndarray]:
        shape = (len(self.config.slew_index), len(self.config.load_index))
        return {key: np.zeros(shape) for key in ("cell_rise", "cell_fall",
                                                 "rise_transition",
                                                 "fall_transition")}

    @staticmethod
    def _keep_worst(tables: dict, out_tr: str, at, delay, slew) -> None:
        """Store (delay, slew) at ``at`` where the delay beats the stored one."""
        dkey, skey = f"cell_{out_tr}", f"{out_tr}_transition"
        later = delay > tables[dkey][at]
        tables[dkey][at] = np.where(later, delay, tables[dkey][at])
        tables[skey][at] = np.where(later, slew, tables[skey][at])

    def _arc_sense(self, senses: set) -> str:
        if senses == {("rise", "fall"), ("fall", "rise")}:
            return "negative_unate"
        if senses == {("rise", "rise"), ("fall", "fall")}:
            return "positive_unate"
        return "non_unate"

    def _finish_arc(self, pin: str, senses: set, tables: dict) -> TimingArc:
        """Assemble a :class:`TimingArc` from filled slew/load tables."""
        for a, b in (("cell_rise", "cell_fall"),
                     ("rise_transition", "fall_transition")):
            if not tables[a].any():
                tables[a] = tables[b].copy()
            if not tables[b].any():
                tables[b] = tables[a].copy()

        slews = self.config.slew_index
        loads = self.config.load_index

        def mk(key: str) -> NLDMTable:
            return NLDMTable(np.asarray(slews), np.asarray(loads), tables[key])

        return TimingArc(
            related_pin=pin,
            sense=self._arc_sense(senses),
            cell_rise=mk("cell_rise"),
            cell_fall=mk("cell_fall"),
            rise_transition=mk("rise_transition"),
            fall_transition=mk("fall_transition"),
        )

    # ------------------------------------------------------------------ #
    # Batched-grid SPICE timing
    # ------------------------------------------------------------------ #
    def plan_grid_batches(
        self,
        cell: StandardCell,
        pin: str,
        side: dict[str, bool] | None = None,
    ) -> list[GridBatch]:
        """Schedule an arc's table points into batched-grid transients.

        The planning unit is the per-(slew, edge) load row: all seven
        loads share one input ramp, so they share a union time grid with
        ``dt = min`` over the row (tightest accuracy requirement) and
        ``t_stop = max`` (slowest transition completes).  Rows whose
        union grids are compatible are then greedily merged into wider
        batches: one lockstep Newton step costs nearly the same for 7
        replicas as for 49 (the stacked compact-model call dominates and
        is size-independent at these widths), so the only real cost of a
        batch is its step count and width is close to free.  Two rows
        merge whenever the merged union grid's predicted work (steps x a
        small per-replica tax, see :data:`GRID_STEP_REPLICA_TAX`) does
        not exceed the rows solved apart.  Rows with clashing grids --
        e.g. a 2 ps slew row stepping at 67 fs next to a 128 ps row
        stepping at 500 fs -- stay separate.
        """
        from repro.spice import DC, ramp

        cfg = self.config
        if side is None:
            side = self._sensitize(cell, pin)
            if side is None:
                raise ValueError(
                    f"{cell.name}: pin {pin!r} cannot toggle output")
        fn = cell.function()
        meshes = self._arc_meshes(cell, pin)

        rows: list[GridBatch] = []
        for i, s in enumerate(cfg.slew_index):
            for in_tr in ("rise", "fall"):
                v0 = 0.0 if in_tr == "rise" else cfg.vdd
                v1 = cfg.vdd - v0
                out0 = fn.evaluate({**side, pin: v0 > cfg.vdd / 2})
                out1 = fn.evaluate({**side, pin: v1 > cfg.vdd / 2})
                out_tr = "rise" if (out1 and not out0) else "fall"
                est = meshes[in_tr].get(out_tr)
                t_start = 3e-12 + 2 * s
                ramp_dur = s / 0.8
                points = []
                for j, c in enumerate(cfg.load_index):
                    est_d, est_s = ((20e-12, 20e-12) if est is None
                                    else (est[0][i, j], est[1][i, j]))
                    t_stop = (t_start + ramp_dur + 4 * est_d + 4 * est_s
                              + 20e-12)
                    dt = max(min(s / 30.0, est_s / 20.0, 0.5e-12), 0.02e-12)
                    wave_map: dict[str, object] = {
                        p: DC(cfg.vdd if val else 0.0)
                        for p, val in side.items()
                    }
                    wave_map[pin] = ramp(t_start, ramp_dur, v0, v1)
                    points.append(GridPoint(
                        i=i, j=j, in_tr=in_tr, out_tr=out_tr, slew=s,
                        load=c, est_d=est_d, est_s=est_s, t_stop=t_stop,
                        dt=dt, wave_map=wave_map,
                    ))
                rows.append(GridBatch(
                    points=tuple(points),
                    t_stop=max(p.t_stop for p in points),
                    dt=min(p.dt for p in points),
                ))

        # Greedy merge over rows ordered by step size: neighbours in dt
        # are the rows whose union grids waste the least on each other.
        rows.sort(key=lambda r: (r.dt, r.t_stop))
        batches: list[GridBatch] = []
        for row in rows:
            if batches:
                merged = batches[-1].merged(row)
                if merged.cost() <= batches[-1].cost() + row.cost():
                    batches[-1] = merged
                    continue
            batches.append(row)
        return batches

    def _characterize_arc_spice(
        self, cell: StandardCell, pin: str, notes: list[str] | None = None
    ) -> TimingArc:
        """One arc's tables from a handful of batched-grid transients.

        Each planned batch is one :func:`repro.spice.transient_grid`
        call; a point the batch evicts (or every point of a batch that
        aborts) is replayed alone on its own grid through
        :meth:`_solve_point_resilient`, and a point that fails that too
        falls back to its analytic estimate.  Every degradation lands in
        ``notes``.
        """
        from repro.errors import SolverError
        from repro.spice import SolverBudget, propagation_delay, transient_grid

        notes = [] if notes is None else notes
        cfg = self.config
        side = self._sensitize(cell, pin)
        if side is None:
            raise ValueError(f"{cell.name}: pin {pin!r} cannot toggle output")

        tables = self._blank_tables()
        senses = set()
        record = [pin, cell.output]
        for batch in self.plan_grid_batches(cell, pin, side):
            circuits = [
                self.build_cell_circuit(cell, p.load, p.wave_map)
                for p in batch.points
            ]
            with telemetry.span(
                "cells.grid_batch",
                cell=cell.name, pin=pin, replicas=len(circuits),
                steps=batch.steps,
            ):
                try:
                    results = transient_grid(
                        circuits, batch.t_stop, batch.dt, record=record,
                        budget=SolverBudget(max_seconds=SPICE_GRID_BUDGET_S),
                    )
                except SolverError as exc:
                    # The whole batch ran out of budget: every member
                    # point is replayed through the per-point ladder.
                    notes.append(
                        f"arc {pin}: grid batch aborted "
                        f"({type(exc).__name__}: {exc}); replaying "
                        f"{len(circuits)} points sequentially"
                    )
                    telemetry.count("cells.grid_batch_aborts")
                    results = [None] * len(circuits)

            for p, circuit, res in zip(batch.points, circuits, results):
                senses.add((p.in_tr, p.out_tr))
                if res is not None:
                    telemetry.count("cells.grid_batched_points")
                else:
                    # Evicted from the batch: replay this point alone on
                    # its own grid through the existing retry ladder.
                    telemetry.count("cells.grid_fallback_points")
                    notes.append(
                        f"arc {pin}: grid eviction at slew={p.slew:.3g} "
                        f"load={p.load:.3g} {p.in_tr}; replaying per-point"
                    )
                    res = self._solve_point_resilient(
                        cell, pin, circuit, p.t_stop, p.dt, notes
                    )
                if res is None:
                    d, sl = p.est_d, p.est_s
                else:
                    win = res.waveform(pin)
                    wout = res.waveform(cell.output)
                    d = propagation_delay(
                        win, wout, cfg.vdd, p.in_tr, p.out_tr
                    )
                    sl = wout.transition_time(
                        0.0, cfg.vdd, direction=p.out_tr
                    )
                self._keep_worst(tables, p.out_tr, (p.i, p.j), d, sl)

        return self._finish_arc(pin, senses, tables)

    # ------------------------------------------------------------------ #
    # Leakage and energy
    # ------------------------------------------------------------------ #
    def leakage_by_state(self, cell: StandardCell) -> dict[str, float]:
        """Leakage power (W) per input state, via the stack-effect model."""
        out: dict[str, float] = {}
        for bits in itertools.product([False, True], repeat=len(cell.inputs)):
            asg = dict(zip(cell.inputs, bits))
            total = 0.0
            values = dict(asg)
            for stage in cell.sized_stages:
                stage_in = {s: values[s] for s in stage.pdn.inputs()}
                pdn_on = stage.pdn.conduction(stage_in)
                values[stage.output] = not pdn_on
                if pdn_on:
                    # Output low: the PUN (off) leaks.  PMOS devices are on
                    # when their gate is low.
                    pun_state = {s: not values[s] for s in stage_in}
                    leak = stage.pdn.dual().leakage_current(
                        pun_state, self._ioff_p * stage.nfin_p
                    )
                else:
                    leak = stage.pdn.leakage_current(
                        stage_in, self._ioff_n * stage.nfin_n
                    )
                total += leak * self.config.vdd
            key = "".join("1" if b else "0" for b in bits)
            out[key] = total
        return out

    def switching_energy(self, cell: StandardCell) -> float:
        """Internal energy per output event (J): CV^2/2 + short circuit."""
        total_cap = 0.0
        for stage in cell.sized_stages:
            total_cap += self._stage_parasitic_cap(stage)
            for consumer in cell.sized_stages:
                total_cap += self._stage_input_cap(consumer, stage.output)
        return SHORT_CIRCUIT_FACTOR * 0.5 * total_cap * self.config.vdd**2

    # ------------------------------------------------------------------ #
    # Sequential cells
    # ------------------------------------------------------------------ #
    def _nand2_reference_stage(self, drive: int) -> Stage:
        pdn = series(device("A"), device("B"))
        return Stage("Y", pdn).sized(drive)

    def characterize_sequential(self, cell: SequentialCell) -> CharacterizedCell:
        """Derive flop timing from the library's own NAND2 stage delays."""
        ref = self._nand2_reference_stage(cell.drive)
        internal = self._nand2_reference_stage(1)
        internal_load = self._stage_parasitic_cap(internal) + 2 * (
            self._stage_input_cap(ref, "A")
        )

        def clk_to_q(slew, load, tr: str):
            """Two-stage clock-to-Q map; slew/load broadcast together."""
            d1, s1 = self._stage_delay_slew(internal, tr, slew, internal_load)
            stage_load = self._stage_parasitic_cap(ref) + load
            d2, s2 = self._stage_delay_slew(ref, tr, s1, stage_load)
            extra = max(cell.clk_to_q_stages - 2, 0)
            return d1 * (1 + extra) + d2, s2

        slews = np.asarray(self.config.slew_index)
        loads = np.asarray(self.config.load_index)

        def table(tr: str, want_slew: bool) -> NLDMTable:
            # The stage-delay model is affine in (slew, load), so both
            # maps mesh-evaluate in one broadcast instead of 49 scalar
            # clk_to_q calls per table.
            d, sl = clk_to_q(slews[:, None], loads[None, :], tr)
            vals = sl if want_slew else d
            shape = (len(slews), len(loads))
            return NLDMTable(
                slews, loads, np.array(np.broadcast_to(vals, shape))
            )

        arc = TimingArc(
            related_pin=cell.clock_pin,
            sense="non_unate",
            cell_rise=table("rise", False),
            cell_fall=table("fall", False),
            rise_transition=table("rise", True),
            fall_transition=table("fall", True),
            timing_type=(
                "rising_edge" if cell.edge == "rising" else
                "falling_edge" if cell.edge == "falling" else "latch"
            ),
        )

        nominal_stage_delay, _ = self._stage_delay_slew(
            internal, "fall", 10e-12, internal_load
        )
        pin_cap_clk = 2 * self._stage_input_cap(internal, "A")
        pin_cap_d = self._stage_input_cap(internal, "A")
        pins = [
            CharacterizedPin(cell.data_pin, pin_cap_d),
            CharacterizedPin(cell.clock_pin, pin_cap_clk),
        ]
        for extra in (cell.reset_pin, cell.set_pin, cell.scan_pin):
            if extra:
                pins.append(CharacterizedPin(extra, pin_cap_d))

        # Leakage: approximate as the equivalent number of NAND2 gates.
        nand = StandardCell(
            name="_NANDREF_X1",
            inputs=("A", "B"),
            output="Y",
            stages=(Stage("Y", series(device("A"), device("B"))),),
        ).with_drive(cell.drive, name="_NANDREF")
        nand_leak = float(np.mean(list(self.leakage_by_state(nand).values())))
        n_gates = cell.transistor_count() / 4.0
        leak_avg = nand_leak * n_gates

        return CharacterizedCell(
            name=cell.name,
            footprint=cell.footprint or cell.name,
            area_um2=cell.area_um2,
            is_sequential=True,
            inputs=pins,
            output=cell.output,
            arcs=[arc],
            leakage_by_state={},
            leakage_avg=leak_avg,
            switching_energy=self.switching_energy(nand) * n_gates / 2.0,
            setup_time=cell.setup_stages * nominal_stage_delay,
            hold_time=cell.hold_stages * nominal_stage_delay * 0.5,
            clock_pin=cell.clock_pin,
            data_pin=cell.data_pin,
        )

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #
    def characterize(self, cell: StandardCell | SequentialCell) -> CharacterizedCell:
        """Characterize one cell with the configured engine.

        Per-arc solver failures inside the SPICE engine are absorbed by
        the retry ladder (see :meth:`_solve_point_resilient`) and show
        up in :attr:`CharacterizedCell.notes`; failures that escape this
        method are wrapped in
        :class:`~repro.errors.CharacterizationError` with cell/arc
        context by :func:`repro.cells.library.build_library`.
        """
        if cell.is_sequential:
            return self.characterize_sequential(cell)  # type: ignore[arg-type]
        assert isinstance(cell, StandardCell)
        arcs = []
        notes: list[str] = []
        for pin in cell.inputs:
            if self.config.engine == "spice":
                arcs.append(self._characterize_arc_spice(cell, pin, notes))
            else:
                arcs.append(self._characterize_arc_analytic(cell, pin))
        leakage = self.leakage_by_state(cell)
        pins = [
            CharacterizedPin(p, self.pin_capacitance(cell, p))
            for p in cell.inputs
        ]
        return CharacterizedCell(
            name=cell.name,
            footprint=cell.footprint or cell.name,
            area_um2=cell.area_um2,
            is_sequential=False,
            inputs=pins,
            output=cell.output,
            arcs=arcs,
            leakage_by_state=leakage,
            leakage_avg=float(np.mean(list(leakage.values()))),
            switching_energy=self.switching_energy(cell),
            truth=cell.truth(),
            input_order=cell.inputs,
            notes=notes,
        )
