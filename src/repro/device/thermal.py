"""Cryogenic temperature helpers: effective temperature and Vth(T).

At deep-cryogenic temperatures the measured subthreshold swing does *not*
follow the Boltzmann limit ln(10)*kT/q down to zero; it saturates because of
band tails and source-to-drain tunneling (paper Section III-A, refs.
[26]-[29]).  Following the effective-temperature picture of Pahwa et al. we
replace the lattice temperature T by a smoothly saturating

    T_eff(T) = sqrt((T * (1 + D0))^2 + T0^2)

so that T_eff -> T for T >> T0 and T_eff -> T0 for T -> 0.  All Fermi-Dirac
corrections of the original model collapse into this single effective
quantity for the purposes of the analytic model.

Every helper is elementwise in the parameters: ``params`` may be one
:class:`~repro.device.params.FinFETParams` record (scalar results) or the
per-device parameter table of :func:`repro.device.finfet.stack_models`
(one result per device).  :class:`repro.device.finfet.FinFET` evaluates
the temperature-only helpers once per temperature and caches them.
"""

from __future__ import annotations

import numpy as np

from repro.device import constants as const
from repro.device.params import FinFETParams


def effective_temperature(
    temperature_k: float, params: FinFETParams
) -> np.ndarray | float:
    """Return the band-tail effective temperature in K.

    ``T0`` sets the saturation floor and ``D0`` a linear stretch; both are
    calibration targets of the ``cryogenic`` extraction stage.
    """
    scaled = temperature_k * (1.0 + params.D0)
    return np.sqrt(scaled * scaled + params.T0 * params.T0)


def effective_thermal_voltage(
    temperature_k: float, params: FinFETParams
) -> np.ndarray | float:
    """Return k*T_eff/q in volts: the swing-defining thermal voltage."""
    return const.BOLTZMANN_EV * effective_temperature(temperature_k, params)


def cooldown_fraction(temperature_k: float) -> float:
    """Return the normalized cooldown (TNOM - T)/TNOM, 0 at 300 K.

    All linear/quadratic temperature coefficients in the model expand in
    this quantity, which stays in [0, 1) for 0 < T <= 300 K.
    """
    return (const.TNOM - temperature_k) / const.TNOM


def threshold_voltage(
    temperature_k: float, params: FinFETParams
) -> np.ndarray | float:
    """Return the zero-bias threshold voltage Vth(T) in V (magnitude).

    Combines the TNOM threshold with the cryogenic shift terms::

        Vth(T) = VTH0 + (PHIG - PHIG_ref)
                 + TVTH*dTn + KT12*dTn^2 + KT11*(TNOM/T_eff - 1)/TNOM_ratio

    where ``dTn`` is the normalized cooldown.  The paper reports +47 % (n)
    and +39 % (p) from 300 K to 10 K; the golden device and the calibration
    bounds are chosen so those shifts are reachable.
    """
    dtn = cooldown_fraction(temperature_k)
    teff = effective_temperature(temperature_k, params)
    # KT11 expands in the (bounded) effective inverse temperature so the
    # term cannot blow up at millikelvin temperatures.
    inv_term = const.TNOM / teff - 1.0
    phig_shift = params.PHIG - 4.25
    return (
        params.VTH0
        + phig_shift
        + params.TVTH * dtn
        + params.KT12 * dtn * dtn
        + params.KT11 * inv_term / 10.0
    )


def subthreshold_slope_factor(vds: np.ndarray | float, params: FinFETParams) -> np.ndarray | float:
    """Return the slope (ideality) factor n(Vds) >= 1.

    ``CIT`` models interface traps, ``CDSC`` source/drain coupling and
    ``CDSCD`` its drain-bias dependence, all normalized to Cox as in the
    paper's parameter story.
    """
    vds_mag = np.abs(vds)
    return 1.0 + params.CIT + params.CDSC + params.CDSCD * vds_mag
