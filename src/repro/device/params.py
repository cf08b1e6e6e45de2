"""BSIM-CMG-style parameter set for the cryogenic-aware FinFET compact model.

The parameter names follow the ones the paper manipulates during calibration
(Section III-A):

* ``PHIG, CIT, CDSC``           -- subthreshold behaviour at 300 K
* ``UO, UA, UD, EU, ETAMOB``    -- low-field mobility and degradation
* ``RSW, RDW, RSWMIN, RDWMIN``  -- source/drain series resistance
* ``ETA0, PDIBL2, CDSCD``       -- drain-induced barrier lowering
* ``VSAT, VSAT1, MEXP, KSATIV`` -- velocity saturation / Vdsat smoothing
* cryogenic extensions (after Pahwa et al., paper ref. [26]):
  ``T0, D0`` (band-tail effective temperature), ``KT11, KT12, TVTH``
  (threshold-voltage temperature law), ``UA1, UA2, UD1, UD2, EU1``
  (scattering temperature coefficients), ``TMEXP1, TMEXP2`` (Vdsat smoothing
  vs. T), ``AT, AT1, AT2`` (saturation velocity vs. T) and
  ``KSATIVT1, KSATIVT2`` (pinch-off vs. T).

The model is *not* the licensed BSIM-CMG Verilog-A implementation -- it is a
charge-based analytic model exposing the same knobs so the paper's staged
extraction flow can be reproduced faithfully (see DESIGN.md, substitutions).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterator

from repro.device import constants as const
from repro.errors import ConfigError


@dataclass
class FinFETParams:
    """Complete parameter set for one FinFET polarity.

    Instances are plain records: the model equations live in
    :mod:`repro.device.finfet`.  All voltages are in V, currents in A,
    resistances in Ohm (per fin), mobilities in m^2/(V*s).
    """

    # Polarity and geometry ------------------------------------------------
    polarity: str = "n"
    """Either ``"n"`` or ``"p"``."""

    nfin: int = 1
    """Number of fins; acts as a pure current/capacitance multiplier, the
    only parameter the characterization flow changes (paper Section IV-A)."""

    lgate: float = const.LGATE
    """Gate length in m."""

    hfin: float = const.HFIN
    tfin: float = const.TFIN
    eot: float = const.EOT

    # Subthreshold / electrostatics (300 K) --------------------------------
    PHIG: float = 4.25
    """Gate work function in eV.  Shifts the threshold voltage."""

    VTH0: float = 0.20
    """Base threshold voltage at TNOM in V (derived jointly with PHIG; we
    expose it directly because the synthetic flow has no TCAD step)."""

    CIT: float = 0.05
    """Interface-trap capacitance ratio (normalized to Cox); raises the
    subthreshold slope factor."""

    CDSC: float = 0.08
    """Source/drain-to-channel coupling capacitance ratio (normalized)."""

    CDSCD: float = 0.04
    """Drain-bias dependence of CDSC (1/V, normalized)."""

    # Mobility (300 K) ------------------------------------------------------
    UO: float = 0.030
    """Low-field mobility at TNOM in m^2/Vs."""

    UA: float = 0.55
    """Phonon / surface-roughness degradation coefficient (1/V^EU)."""

    UD: float = 0.08
    """Coulomb-scattering degradation coefficient (screened by charge)."""

    EU: float = 1.6
    """Effective-field exponent of the UA term."""

    ETAMOB: float = 1.0
    """Effective-field scaling factor in the mobility model."""

    # Series resistance ------------------------------------------------------
    RSW: float = 2500.0
    """Bias-dependent source resistance (Ohm per fin, screened by charge)."""

    RDW: float = 2500.0
    """Bias-dependent drain resistance (Ohm per fin)."""

    RSWMIN: float = 400.0
    """Residual source resistance floor (Ohm per fin)."""

    RDWMIN: float = 400.0
    """Residual drain resistance floor (Ohm per fin)."""

    # DIBL / output conductance ----------------------------------------------
    ETA0: float = 0.060
    """DIBL coefficient (V/V): Vth reduction per volt of Vds."""

    PDIBL2: float = 0.12
    """DIBL output-conductance shaping (dimensionless, saturates ETA0)."""

    PCLM: float = 0.05
    """Channel-length-modulation coefficient (1/V)."""

    # Velocity saturation ------------------------------------------------------
    VSAT: float = 9.0e4
    """Saturation velocity at TNOM in m/s."""

    VSAT1: float = 9.0e4
    """High-field saturation velocity (second branch) in m/s."""

    MEXP: float = 4.0
    """Vdseff smoothing exponent."""

    KSATIV: float = 1.0
    """Vdsat (pinch-off) scaling factor."""

    # Leakage floor (source-drain tunneling / GIDL-like, paper ref. [29]) ----
    ITUN: float = 3.0e-12
    """Temperature-independent tunneling floor current per fin at
    Vgs = 0, Vds = VDD, in A."""

    STUN: float = 0.55
    """Gate-voltage swing of the tunneling floor in V/decade-e (large =>
    weak gate control, as observed for source-drain tunneling)."""

    # Cryogenic extensions ------------------------------------------------------
    T0: float = 38.0
    """Band-tail saturation temperature in K: the effective temperature
    never falls below ~T0, saturating the subthreshold swing."""

    D0: float = 0.0
    """Linear correction to the effective temperature (dimensionless)."""

    KT11: float = 0.0
    """Linear Vth(T) coefficient on (TNOM/T_eff - 1) (V)."""

    KT12: float = 0.030
    """Quadratic Vth(T) coefficient on the normalized cooldown (V)."""

    TVTH: float = 0.060
    """Linear Vth(T) coefficient on the normalized cooldown (V)."""

    UA1: float = 0.35
    """Linear temperature coefficient of UA (surface roughness grows as the
    carriers cool and crowd the surface)."""

    UA2: float = 0.0
    """Quadratic temperature coefficient of UA."""

    UD1: float = 0.10
    """Linear temperature coefficient of UD (Coulomb scattering grows at
    cryogenic temperatures)."""

    UD2: float = 0.0
    """Quadratic temperature coefficient of UD."""

    EU1: float = 0.0
    """Temperature coefficient of the effective-field exponent."""

    UTE: float = 0.85
    """Phonon-limited mobility enhancement factor toward cryo (peak mobility
    rises as lattice vibration freezes out)."""

    TMEXP: float = 0.0
    """Reserved (paper name); base smoothing handled by MEXP."""

    TMEXP1: float = 0.4
    """Linear temperature coefficient of MEXP."""

    TMEXP2: float = 0.0
    """Quadratic temperature coefficient of MEXP."""

    AT: float = 0.10
    """Linear temperature coefficient of VSAT (velocity rises toward cryo)."""

    AT1: float = 0.0
    """Quadratic temperature coefficient of VSAT."""

    AT2: float = 0.0
    """Cubic temperature coefficient of VSAT."""

    KSATIVT1: float = 0.05
    """Linear temperature coefficient of KSATIV (pinch-off vs. T)."""

    KSATIVT2: float = 0.0
    """Quadratic temperature coefficient of KSATIV."""

    # Parasitics for timing --------------------------------------------------
    COV: float = 0.25e-16
    """Overlap/fringe capacitance per fin per side in F."""

    CJD: float = 0.12e-16
    """Drain junction capacitance per fin in F."""

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ConfigError(
                f"polarity must be 'n' or 'p', got {self.polarity!r}",
                field="polarity")
        if self.nfin < 1:
            raise ConfigError(f"nfin must be >= 1, got {self.nfin}",
                              field="nfin")
        for name, value in vars(self).items():
            if name != "polarity" and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}",
                                  field=name)

    # Convenience -----------------------------------------------------------
    @property
    def sign(self) -> float:
        """Bias and current sign of the polarity: +1 for n, -1 for p."""
        return -1.0 if self.polarity == "p" else 1.0

    @property
    def weff(self) -> float:
        """Effective electrical width of one fin in m."""
        return 2.0 * self.hfin + self.tfin

    @property
    def cox(self) -> float:
        """Oxide capacitance per area in F/m^2."""
        return const.EPS_SIO2 / self.eot

    @property
    def cgate_fin(self) -> float:
        """Lumped gate capacitance of one fin in F (channel + overlaps)."""
        return self.cox * self.weff * self.lgate + 2.0 * self.COV

    def copy(self, **overrides: object) -> "FinFETParams":
        """Return a copy with ``overrides`` applied."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    def as_dict(self) -> dict[str, object]:
        """Return all parameters as a plain dict (modelcard serialization)."""
        return dataclasses.asdict(self)

    def __iter__(self) -> Iterator[tuple[str, object]]:
        return iter(self.as_dict().items())


#: Names of the parameters each calibration stage is allowed to touch.
#: Mirrors the staged extraction of paper Section III-A.
STAGE_PARAMETERS: dict[str, tuple[str, ...]] = {
    "subthreshold": ("VTH0", "CIT", "CDSC"),
    "mobility": ("UO", "UA", "UD", "EU"),
    "series_resistance": ("RSW", "RDW", "RSWMIN", "RDWMIN"),
    "dibl": ("ETA0", "PDIBL2", "CDSCD"),
    "velocity_saturation": ("VSAT", "MEXP", "KSATIV", "PCLM"),
    "polish_room": (
        "VTH0",
        "CIT",
        "CDSC",
        "UO",
        "UA",
        "UD",
        "EU",
        "RSW",
        "RSWMIN",
        "ETA0",
        "PDIBL2",
        "CDSCD",
        "VSAT",
        "MEXP",
        "KSATIV",
        "PCLM",
        "ITUN",
    ),
    "cryogenic": (
        "T0",
        "D0",
        "KT11",
        "KT12",
        "TVTH",
        "UA1",
        "UD1",
        "EU1",
        "UTE",
        "AT",
        "TMEXP1",
        "KSATIVT1",
        "ITUN",
    ),
}


def default_nfet(nfin: int = 1) -> FinFETParams:
    """Return the *initial-guess* n-FinFET parameter set used by calibration.

    These values are intentionally detuned from the hidden golden device in
    :mod:`repro.device.measurement`; the calibration flow has to recover the
    device behaviour from the synthetic measurements.
    """
    return FinFETParams(polarity="n", nfin=nfin)


def default_pfet(nfin: int = 1) -> FinFETParams:
    """Return the *initial-guess* p-FinFET parameter set used by calibration."""
    return FinFETParams(
        polarity="p",
        nfin=nfin,
        VTH0=0.21,
        UO=0.018,
        UA=0.62,
        UD=0.10,
        VSAT=7.5e4,
        VSAT1=7.5e4,
        TVTH=0.050,
        KT12=0.024,
    )
