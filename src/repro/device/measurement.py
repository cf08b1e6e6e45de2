"""Synthetic 5-nm FinFET measurement campaign.

The paper's calibration inputs are probe-station measurements of real 5-nm
FinFETs at 300 K and 10 K (taken at IIT Delhi's cryogenic facility).  Those
data are not public, so this module *simulates the measurement campaign*:

* a hidden "golden" device -- the same model family as the calibration
  target but with a parameter set the calibration code never sees, tuned so
  the headline physics match the paper (Vth +47 %/+39 % at 10 K, SS
  saturation near 10 mV/dec, OFF-current collapse by three orders of
  magnitude, ON-current nearly unchanged);
* bias-dependent multiplicative noise reproducing the "intrinsic randomness
  of the measurements ... observed at lower VG" that the paper names as the
  cause of low-current discrepancies in Fig. 3;
* the exact sweep plan of Fig. 3: Ids-Vgs in linear (|Vds| = 50 mV) and
  saturation (|Vds| = 750 mV) for both polarities at both temperatures,
  plus Ids-Vds output curves used by the velocity-saturation stage.

See DESIGN.md section 2 for why this substitution preserves the behaviour
the downstream flow depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device import constants as const
from repro.device.finfet import FinFET
from repro.device.params import FinFETParams

__all__ = [
    "IVCurve",
    "IVDataset",
    "MeasurementCampaign",
    "golden_nfet",
    "golden_pfet",
    "VDS_LINEAR",
    "VDS_SATURATION",
]

VDS_LINEAR: float = 0.050
"""|Vds| of the linear-region sweep in V (Fig. 3(a))."""

VDS_SATURATION: float = 0.750
"""|Vds| of the saturation-region sweep in V (Fig. 3(b))."""


def golden_nfet(nfin: int = 1) -> FinFETParams:
    """Return the hidden golden n-FinFET the synthetic fab produced.

    Tuned so the metrics extracted from its curves land on the paper's
    headline numbers (see module docstring).  Calibration code must never
    import this -- it exists only for data generation and for test oracles.
    """
    return FinFETParams(
        polarity="n",
        nfin=nfin,
        VTH0=0.257,
        CIT=0.045,
        CDSC=0.075,
        CDSCD=0.045,
        UO=0.0315,
        UA=0.52,
        UD=0.085,
        EU=1.55,
        RSW=2000.0,
        RDW=2000.0,
        RSWMIN=300.0,
        RDWMIN=300.0,
        ETA0=0.058,
        PDIBL2=0.11,
        PCLM=0.055,
        VSAT=9.2e4,
        VSAT1=9.2e4,
        MEXP=3.8,
        KSATIV=1.02,
        ITUN=2.9e-12,
        STUN=0.56,
        T0=37.0,
        D0=0.02,
        TVTH=-0.010,
        KT11=0.0,
        KT12=0.0,
        UTE=0.05,
        AT=0.0,
        UA1=3.0,
        UD1=3.5,
        TMEXP1=0.35,
        KSATIVT1=0.04,
    )


def golden_pfet(nfin: int = 1) -> FinFETParams:
    """Return the hidden golden p-FinFET (see :func:`golden_nfet`)."""
    return FinFETParams(
        polarity="p",
        nfin=nfin,
        VTH0=0.255,
        CIT=0.050,
        CDSC=0.080,
        CDSCD=0.040,
        UO=0.0185,
        UA=0.60,
        UD=0.105,
        EU=1.62,
        RSW=2400.0,
        RDW=2400.0,
        RSWMIN=350.0,
        RDWMIN=350.0,
        ETA0=0.062,
        PDIBL2=0.13,
        PCLM=0.050,
        VSAT=7.6e4,
        VSAT1=7.6e4,
        MEXP=4.1,
        KSATIV=0.98,
        ITUN=2.8e-12,
        STUN=0.55,
        T0=38.5,
        D0=0.02,
        TVTH=-0.014,
        KT11=0.0,
        KT12=0.0,
        UTE=0.05,
        AT=0.0,
        UA1=2.8,
        UD1=6.0,
        TMEXP1=0.35,
        KSATIVT1=0.04,
    )


@dataclass(frozen=True)
class IVCurve:
    """One measured sweep: fixed ``vds`` (transfer) or fixed ``vgs`` (output).

    ``kind`` is ``"transfer"`` (x = vgs) or ``"output"`` (x = vds).
    Voltages carry the device's natural sign (negative for p-FinFETs).
    """

    kind: str
    polarity: str
    temperature_k: float
    fixed_bias: float
    x: np.ndarray
    ids: np.ndarray

    @property
    def vgs(self) -> np.ndarray:
        """Gate bias axis (transfer: the sweep; output: the fixed bias)."""
        if self.kind == "transfer":
            return self.x
        return np.full_like(self.x, self.fixed_bias)

    @property
    def vds(self) -> np.ndarray:
        """Drain bias axis (output: the sweep; transfer: the fixed bias)."""
        if self.kind == "output":
            return self.x
        return np.full_like(self.x, self.fixed_bias)


@dataclass
class IVDataset:
    """All curves measured for one device polarity."""

    polarity: str
    curves: list[IVCurve] = field(default_factory=list)

    def transfer(self, temperature_k: float, vds_mag: float) -> IVCurve:
        """Return the transfer curve at the given corner (|Vds| match)."""
        for c in self.curves:
            if (
                c.kind == "transfer"
                and abs(c.temperature_k - temperature_k) < 1e-6
                and abs(abs(c.fixed_bias) - vds_mag) < 1e-9
            ):
                return c
        raise KeyError(
            f"no transfer curve at T={temperature_k} K, |Vds|={vds_mag} V"
        )

    def outputs(self, temperature_k: float) -> list[IVCurve]:
        """Return all output curves at one temperature."""
        return [
            c
            for c in self.curves
            if c.kind == "output" and abs(c.temperature_k - temperature_k) < 1e-6
        ]

    @property
    def temperatures(self) -> list[float]:
        """Sorted unique temperatures present in the dataset."""
        return sorted({c.temperature_k for c in self.curves})


class MeasurementCampaign:
    """Generates the synthetic probe-station campaign for both polarities.

    Parameters
    ----------
    seed:
        Seed of the measurement-noise generator.  The same seed reproduces
        the same campaign bit-for-bit.
    noise_floor:
        Instrument noise floor in A: currents are blurred by an additive
        Gaussian of this scale, dominating below ~10 x the floor, which is
        what limits the observable OFF current exactly as in Fig. 3.
    relative_noise:
        Multiplicative log-normal sigma applied everywhere (contact and
        sweep repeatability).
    """

    def __init__(
        self,
        seed: int = 2023,
        noise_floor: float = 2e-13,
        relative_noise: float = 0.015,
        temperatures: tuple[float, ...] = (const.T_ROOM, const.T_CRYO),
    ):
        self.seed = seed
        self.noise_floor = noise_floor
        self.relative_noise = relative_noise
        self.temperatures = temperatures
        self._rng = np.random.default_rng(seed)

    def _noisy(self, ids: np.ndarray) -> np.ndarray:
        """Apply multiplicative + additive instrument noise to a sweep."""
        mult = np.exp(self._rng.normal(0.0, self.relative_noise, ids.shape))
        add = self._rng.normal(0.0, self.noise_floor, ids.shape)
        return ids * mult + add

    def measure_device(self, golden: FinFETParams, n_points: int = 81) -> IVDataset:
        """Run the full sweep plan against one golden device."""
        device = FinFET(golden)
        sign = golden.sign
        dataset = IVDataset(polarity=golden.polarity)
        vgs_axis = sign * np.linspace(0.0, const.VDD + 0.05, n_points)

        for t in self.temperatures:
            for vds_mag in (VDS_LINEAR, VDS_SATURATION):
                vds = sign * vds_mag
                ids = device.ids(vgs_axis, vds, t)
                dataset.curves.append(
                    IVCurve(
                        kind="transfer",
                        polarity=golden.polarity,
                        temperature_k=t,
                        fixed_bias=vds,
                        x=vgs_axis.copy(),
                        ids=self._noisy(np.asarray(ids)),
                    )
                )
            # Output curves at three gate overdrives for the velocity-
            # saturation stage.
            vds_axis = sign * np.linspace(0.0, const.VDD + 0.05, n_points)
            for vgs_mag in (0.45, 0.60, 0.75):
                vgs = sign * vgs_mag
                ids = device.ids(vgs, vds_axis, t)
                dataset.curves.append(
                    IVCurve(
                        kind="output",
                        polarity=golden.polarity,
                        temperature_k=t,
                        fixed_bias=vgs,
                        x=vds_axis.copy(),
                        ids=self._noisy(np.asarray(ids)),
                    )
                )
        return dataset

    def run(self, n_points: int = 81) -> dict[str, IVDataset]:
        """Measure both polarities; returns ``{"n": ..., "p": ...}``."""
        return {
            "n": self.measure_device(golden_nfet(), n_points=n_points),
            "p": self.measure_device(golden_pfet(), n_points=n_points),
        }
