"""SoC power analysis: the Cadence-Voltus step of the flow (Fig. 6).

Combines:

* **logic dynamic power** -- per-net ``alpha * C * Vdd^2 * f`` with net
  capacitance from pins + placed wires, plus per-cell internal/short-
  circuit energy.  The short-circuit fraction shrinks at cryogenic
  temperatures (higher Vth narrows the conduction overlap), one of the
  two reasons the paper's dynamic power drops ~10 % at 10 K;
* **clock-tree power** -- every flop clock pin toggles twice per cycle;
* **SRAM access power** -- from :class:`~repro.power.sram.SRAMPowerModel`
  and the workload's access rates;
* **logic leakage** and **SRAM hold leakage** -- the 300 K showstopper
  and the 10 K non-issue.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.activity import WorkloadActivity
from repro.power.sram import SRAMPowerModel
from repro.synth.netlist import GateNetlist
from repro.synth.opt import net_load
from repro.synth.placement import Placement

__all__ = ["PowerReport", "UncoreModel", "analyze_power"]

#: Base short-circuit fraction of switching energy at zero-Vth overlap.
SC_BASE = 0.8


@dataclass(frozen=True)
class UncoreModel:
    """Statistical model of the SoC logic outside the elaborated core.

    The gate-level netlist elaborates the timing-critical core datapath;
    the rest of the paper's "fully functional system, including ... caches
    and periphery like a memory controller" (cache controllers, TileLink
    fabric, DMA, peripherals) is accounted for as ``gate_equivalents``
    instances of ``reference_cell`` with a low engagement ``activity`` --
    matching the paper's observation that "for simpler tasks ... only
    parts of the SoC have to be engaged".

    The default 3.5M gate-equivalents reproduces the paper's ~11 mW of
    300 K logic leakage for a Rocket tile + 512 KiB L2 system.
    """

    gate_equivalents: float = 3.5e6
    activity: float = 0.015
    reference_cell: str = "NAND2_X1"
    wire_cap: float = 0.4e-15

    def power(self, library, sc: float, frequency_hz: float) -> tuple[float, float]:
        """Return (dynamic W, leakage W) at a corner."""
        cell = library[self.reference_cell]
        c_net = self.wire_cap + 2.0 * cell.inputs[0].capacitance
        vdd = library.vdd
        event = c_net * vdd * vdd + sc * cell.switching_energy
        dynamic = self.gate_equivalents * self.activity * event * frequency_hz
        leakage = self.gate_equivalents * cell.leakage_avg
        return dynamic, leakage


@dataclass(frozen=True)
class PowerReport:
    """Power breakdown at one corner for one workload (all in W)."""

    workload: str
    temperature_k: float
    frequency_hz: float
    dynamic_logic: float
    dynamic_clock: float
    dynamic_sram: float
    leakage_logic: float
    leakage_sram: float

    @property
    def dynamic_total(self) -> float:
        return self.dynamic_logic + self.dynamic_clock + self.dynamic_sram

    @property
    def leakage_total(self) -> float:
        return self.leakage_logic + self.leakage_sram

    @property
    def total(self) -> float:
        return self.dynamic_total + self.leakage_total

    def fits_budget(self, budget_w: float = 0.100) -> bool:
        """Feasibility against the cryostat cooling capacity."""
        return self.total <= budget_w

    def breakdown(self) -> dict[str, float]:
        return {
            "dynamic_logic": self.dynamic_logic,
            "dynamic_clock": self.dynamic_clock,
            "dynamic_sram": self.dynamic_sram,
            "leakage_logic": self.leakage_logic,
            "leakage_sram": self.leakage_sram,
        }


def short_circuit_factor(library, models) -> float:
    """Multiplier on CV^2 for short-circuit current at a corner.

    Short-circuit current flows while both networks conduct around the
    mid-swing point; its magnitude tracks the mid-swing drive relative to
    full drive, I(Vdd/2, Vdd/2) / Ion.  At 10 K the extracted threshold
    rise starves the mid-swing current, shrinking the factor -- one of
    the two mechanisms (with the lower achievable clock) behind the
    paper's ~10 % dynamic-power drop at 10 K.
    """
    from repro.device.finfet import FinFET

    t = library.temperature_k
    vdd = library.vdd
    ratio = 0.0
    for params, sign in ((models.nfet, 1.0), (models.pfet, -1.0)):
        dev = FinFET(params)
        i_mid = abs(float(dev.ids(sign * vdd / 2, sign * vdd / 2, t)))
        ratio += i_mid / dev.ion(t, vdd) / 2.0
    return 1.0 + SC_BASE * ratio


def analyze_power(
    netlist: GateNetlist,
    library,
    activity: WorkloadActivity,
    frequency_hz: float,
    models,
    placement: Placement | None = None,
    uncore: UncoreModel | None = None,
) -> PowerReport:
    """Full SoC power at one corner for one workload.

    ``models`` is the :class:`~repro.cells.characterize.TechModels` pair
    used both for the SRAM bitcell model and the short-circuit scaling.
    ``uncore`` adds the statistical model of the un-elaborated SoC logic;
    pass ``UncoreModel()`` for the paper's full-system accounting or None
    to analyze the elaborated netlist only.
    """
    vdd = library.vdd
    sc = short_circuit_factor(library, models)

    # Logic dynamic: net switching + internal energy per gate event.
    dyn_logic = 0.0
    leak_logic = 0.0
    for gate in netlist.gates.values():
        cell = library[gate.cell]
        alpha = activity.activity_of(gate.module)
        c_net = net_load(
            netlist, gate.output, library,
            placement.net_wire_cap(gate.output) if placement else 0.0,
        )
        event_energy = c_net * vdd * vdd + sc * cell.switching_energy
        dyn_logic += alpha * event_energy * frequency_hz
        leak_logic += cell.leakage_avg

    # Clock tree: two edges per cycle into every clock pin (plus an
    # estimated distribution buffer overhead of 30 %).
    dyn_clock = 0.0
    for gate in netlist.sequential_gates(library):
        cell = library[gate.cell]
        c_clk = cell.pin_capacitance(cell.clock_pin)
        dyn_clock += 2.0 * c_clk * vdd * vdd * frequency_hz
    dyn_clock *= 1.30

    # SRAM: hold leakage always, access energy per workload rate.
    sram_model = SRAMPowerModel(models, library.temperature_k, vdd)
    dyn_sram = 0.0
    leak_sram = 0.0
    for macro in netlist.macros.values():
        power = sram_model.macro(macro.bits)
        leak_sram += power.leakage_w
        reads = activity.sram_reads_per_cycle.get(macro.name, 0.0)
        writes = activity.sram_writes_per_cycle.get(macro.name, 0.0)
        dyn_sram += power.access_power(
            reads * frequency_hz, writes * frequency_hz
        )

    if uncore is not None:
        dyn_uncore, leak_uncore = uncore.power(library, sc, frequency_hz)
        dyn_logic += dyn_uncore
        leak_logic += leak_uncore

    return PowerReport(
        workload=activity.name,
        temperature_k=library.temperature_k,
        frequency_hz=frequency_hz,
        dynamic_logic=dyn_logic,
        dynamic_clock=dyn_clock,
        dynamic_sram=dyn_sram,
        leakage_logic=leak_logic,
        leakage_sram=leak_sram,
    )
