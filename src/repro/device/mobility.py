"""Temperature- and field-dependent effective mobility.

Implements the paper's mobility narrative (Section III-A):

* peak (low-field) mobility is *enhanced* at cryogenic temperatures because
  phonon scattering freezes out (``UTE`` term);
* at higher vertical fields, surface-roughness scattering increases for the
  slow cold carriers (``UA`` grows via ``UA1``/``UA2``);
* Coulomb scattering grows at cryogenic temperatures but is screened by the
  inversion charge (``UD`` grows via ``UD1``/``UD2``, divided by charge).

The model form is the usual BSIM-style degradation law

    mu_eff = U0(T) / (1 + UA(T) * Eeff^EU(T) + UD(T) / (0.1 + q_n))

with ``Eeff`` the normalized effective vertical field and ``q_n`` the
normalized inversion charge (screening).
"""

from __future__ import annotations

import numpy as np

from repro.device.params import FinFETParams
from repro.device.thermal import cooldown_fraction


def low_field_mobility(
    temperature_k: float, params: FinFETParams
) -> np.ndarray | float:
    """Return the phonon-limited low-field mobility U0(T) in m^2/Vs.

    Grows monotonically toward cryo and saturates (phonons freeze out, but
    the remaining neutral-defect scattering bounds the peak).
    """
    dtn = cooldown_fraction(temperature_k)
    return params.UO * (1.0 + params.UTE * dtn)


def degradation_coefficients(
    temperature_k: float, params: FinFETParams
) -> tuple[np.ndarray | float, np.ndarray | float, np.ndarray | float]:
    """Return (UA(T), UD(T), EU(T)) at ``temperature_k``.

    All three expand linearly/quadratically in the normalized cooldown;
    coefficients are clamped to stay physical (non-negative UA/UD, EU >= 1).
    """
    dtn = cooldown_fraction(temperature_k)
    ua = np.maximum(params.UA + params.UA1 * dtn + params.UA2 * dtn * dtn, 0.0)
    ud = np.maximum(params.UD + params.UD1 * dtn + params.UD2 * dtn * dtn, 0.0)
    eu = np.maximum(params.EU + params.EU1 * dtn, 1.0)
    return ua, ud, eu


def mobility_with_coefficients(
    vgs: np.ndarray | float,
    qn: np.ndarray | float,
    vth: float,
    etamob: float,
    u0: float,
    ua: float,
    ud: float,
    eu: float,
) -> np.ndarray | float:
    """Degradation law evaluated with precomputed temperature coefficients.

    The bias-dependent part of :func:`effective_mobility`, split out so
    the compact model's per-temperature cache can pay for
    ``low_field_mobility``/``degradation_coefficients`` once per
    temperature instead of on every ``ids`` call.
    """
    # Normalized effective vertical field ~ (Vgs + Vth)/(2 * 1V), scaled by
    # ETAMOB; clipped at zero so the subthreshold region sees no roughness
    # degradation.
    eeff = np.maximum(etamob * (np.abs(vgs) + vth) / 2.0, 0.0)
    denom = 1.0 + ua * np.power(eeff, eu) + ud / (0.1 + qn)
    return u0 / denom


def effective_mobility(
    vgs: np.ndarray | float,
    qn: np.ndarray | float,
    vth: float,
    temperature_k: float,
    params: FinFETParams,
) -> np.ndarray | float:
    """Return the effective channel mobility in m^2/Vs.

    Parameters
    ----------
    vgs:
        Gate-source voltage magnitude in V.
    qn:
        Normalized inversion charge (dimensionless, EKV units); used to
        screen the Coulomb term.
    vth:
        Threshold voltage magnitude at the operating temperature in V.
    temperature_k:
        Lattice temperature in K.
    params:
        Device parameter set.
    """
    u0 = low_field_mobility(temperature_k, params)
    ua, ud, eu = degradation_coefficients(temperature_k, params)
    return mobility_with_coefficients(vgs, qn, vth, params.ETAMOB,
                                      u0, ua, ud, eu)
