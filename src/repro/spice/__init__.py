"""SPICE-lite: an MNA circuit simulator for standard-cell characterization.

Stands in for Synopsys PrimeSim in the paper's flow (Fig. 4).  Supports
resistors, capacitors, waveform-driven voltage sources and FinFET compact
-model instances; DC (Newton-Raphson + gmin stepping, one circuit or a
batch) and fixed-step backward-Euler transient analysis.
"""

from repro.spice.mna import MNASystem
from repro.spice.netlist import (
    Capacitor,
    Circuit,
    FinFETElement,
    Resistor,
    VoltageSource,
)
from repro.spice.solver import (
    ConvergenceError,
    OperatingPoint,
    OperatingPointBatch,
    SolverBudget,
    SolverStats,
    TransientResult,
    dc_operating_point,
    transient,
    transient_grid,
)
from repro.spice.sources import DC, PWL, Pulse, ramp, waveform_values
from repro.spice.waveform import Waveform, propagation_delay

__all__ = [
    "Capacitor",
    "Circuit",
    "ConvergenceError",
    "DC",
    "FinFETElement",
    "MNASystem",
    "OperatingPoint",
    "OperatingPointBatch",
    "PWL",
    "Pulse",
    "Resistor",
    "SolverBudget",
    "SolverStats",
    "TransientResult",
    "VoltageSource",
    "Waveform",
    "dc_operating_point",
    "propagation_delay",
    "ramp",
    "transient",
    "transient_grid",
    "waveform_values",
]
