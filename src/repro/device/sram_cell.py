"""6T SRAM bitcell stability: static noise margin via the SPICE engine.

The paper's prior work ([24], the source of its SRAM power numbers)
modelled "SRAM cells and peripheral circuitry ... based on the same
calibrated BSIM-CMG transistor compact model at 300 and 10 K".  This
module rebuilds the cell-stability half of that study:

* the hold butterfly curve from two cross-coupled inverter VTCs computed
  with the MNA DC solver: every point of every VTC a call needs (one
  inverter, one cell, or a whole Monte-Carlo population) is one replica
  of ONE batched ``dc_operating_point`` solve per temperature;
* the static noise margin (SNM) as the largest square inscribed in the
  butterfly lobes (the standard 45-degree construction);
* Monte-Carlo SNM under cryogenic Vth mismatch
  (:class:`~repro.device.variability.MismatchModel`) -- the higher Vth at
  10 K *helps* the margin while the larger mismatch *spreads* it, the
  tension the paper's refs [17]/[24] discuss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.finfet import FinFET
from repro.device.params import FinFETParams
from repro.device.variability import MismatchModel
from repro.errors import ConfigError

__all__ = ["SRAMCellAnalysis", "inverter_vtc", "hold_snm"]


def _vtcs(
    inverters: list[tuple[FinFETParams, FinFETParams]],
    temperature_k: float,
    vdd: float,
    n_points: int,
) -> tuple[np.ndarray, np.ndarray]:
    """VTCs of ``(nfet, pfet)`` inverters as one batched DC solve.

    Returns the shared input sweep and the ``(len(inverters), n_points)``
    outputs; each replica is one (inverter, input voltage) point.
    """
    from repro.spice import Circuit, DC, dc_operating_point

    if n_points < 2:
        raise ConfigError(
            f"a VTC needs at least 2 points, got n_points={n_points}",
            field="n_points")
    vin = np.linspace(0.0, vdd, n_points)
    circuits = []
    for nfet, pfet in inverters:
        mp, mn = FinFET(pfet), FinFET(nfet)
        for v in vin:
            circuit = Circuit("inv_vtc", temperature_k=temperature_k)
            circuit.add_vsource("vdd", "vdd", "0", DC(vdd))
            circuit.add_vsource("vin", "in", "0", DC(float(v)))
            circuit.add_finfet("mp", "out", "in", "vdd", mp,
                               with_parasitics=False)
            circuit.add_finfet("mn", "out", "in", "0", mn,
                               with_parasitics=False)
            circuits.append(circuit)
    vout = dc_operating_point(circuits)["out"]
    return vin, vout.reshape(len(inverters), n_points)


def inverter_vtc(
    nfet: FinFETParams,
    pfet: FinFETParams,
    temperature_k: float,
    vdd: float = 0.70,
    n_points: int = 41,
) -> tuple[np.ndarray, np.ndarray]:
    """Voltage-transfer curve of one bitcell inverter (DC sweep)."""
    vin, vout = _vtcs([(nfet, pfet)], temperature_k, vdd, n_points)
    return vin, vout[0]


def _butterfly_snm(
    v1: np.ndarray, f1: np.ndarray, v2: np.ndarray, f2: np.ndarray,
    vdd: float,
) -> float:
    """SNM from the butterfly of curve1 (f1 vs v1) and mirrored curve2.

    Standard numeric construction: overlay y = f1(x) with the mirrored
    x = f2(y); the two butterfly lobes are the regions of positive and
    negative vertical gap, and the largest inscribed square in a lobe has
    side max(gap)/2.  The cell's SNM is the smaller lobe's square.
    """
    grid = np.linspace(0.0, vdd, 201)
    a = np.interp(grid, v1, f1)
    # Mirrored curve: x = f2(w), y = w; reparameterize on x by sorting.
    order = np.argsort(f2)
    b = np.interp(grid, f2[order], v2[order])
    gap = a - b
    lobe_pos = float(np.max(gap)) / 2.0
    lobe_neg = float(np.max(-gap)) / 2.0
    return max(min(lobe_pos, lobe_neg), 0.0)


def hold_snm(
    nfet_left: FinFETParams,
    pfet_left: FinFETParams,
    nfet_right: FinFETParams,
    pfet_right: FinFETParams,
    temperature_k: float,
    vdd: float = 0.70,
    n_points: int = 41,
) -> float:
    """Hold static noise margin of a 6T cell (access devices off), in V.

    The two inverters may carry different (mismatched) devices; the SNM
    is the smaller of the two butterfly lobes.
    """
    vin, vout = _vtcs([(nfet_left, pfet_left), (nfet_right, pfet_right)],
                      temperature_k, vdd, n_points)
    return _butterfly_snm(vin, vout[0], vin, vout[1], vdd)


@dataclass
class SRAMCellAnalysis:
    """Monte-Carlo hold-SNM study of the ultra-low-Vth bitcell."""

    nfet: FinFETParams
    pfet: FinFETParams
    mismatch: MismatchModel | None = None
    vdd: float = 0.70

    def __post_init__(self) -> None:
        if self.mismatch is None:
            self.mismatch = MismatchModel()

    @classmethod
    def bitcell(cls, models, **kwargs) -> "SRAMCellAnalysis":
        """Build from the SoC's TechModels using the same ultra-low-Vth
        bitcell flavour as the SRAM power model."""
        from repro.power.sram import BITCELL_VTH_OFFSET

        return cls(
            nfet=models.nfet.copy(VTH0=models.nfet.VTH0 + BITCELL_VTH_OFFSET),
            pfet=models.pfet.copy(VTH0=models.pfet.VTH0 + BITCELL_VTH_OFFSET),
            **kwargs,
        )

    def nominal_snm(self, temperature_k: float, n_points: int = 41) -> float:
        """Hold SNM with perfectly matched devices (V)."""
        return hold_snm(
            self.nfet, self.pfet, self.nfet, self.pfet,
            temperature_k, self.vdd, n_points,
        )

    def monte_carlo(
        self,
        temperature_k: float,
        n_cells: int = 25,
        seed: int = 1,
        n_points: int = 31,
    ) -> np.ndarray:
        """Sampled hold SNM across mismatched cells (V).

        Cell ``k`` pairs samples ``2k`` (left inverter) and ``2k + 1``
        (right); all ``n_cells`` cells are one batched DC solve.
        """
        if n_cells < 1:
            raise ConfigError(
                f"Monte Carlo needs at least 1 cell, got n_cells={n_cells}",
                field="n_cells")
        rng = np.random.default_rng(seed)
        n_samples = self.mismatch.sample(self.nfet, temperature_k,
                                         2 * n_cells, rng)
        p_samples = self.mismatch.sample(self.pfet, temperature_k,
                                         2 * n_cells, rng)
        vin, vout = _vtcs(list(zip(n_samples, p_samples)), temperature_k,
                          self.vdd, n_points)
        return np.array([
            _butterfly_snm(vin, vout[2 * k], vin, vout[2 * k + 1], self.vdd)
            for k in range(n_cells)
        ])
