"""Charge-based analytic FinFET compact model with cryogenic extensions.

This module stands in for the (licensed) BSIM-CMG + cryogenic extensions the
paper calibrates.  It is a single-piece, C-infinity model valid from deep
subthreshold to strong inversion, from millikelvin to 400 K:

* EKV-style normalized charge linearization ``2q + ln q = u`` solved in
  closed form with the Lambert-W function;
* drift-diffusion current ``i = (qs^2 + qs) - (qd^2 + qd)`` which reduces to
  the Boltzmann exponential in weak inversion and the square law in strong
  inversion;
* velocity saturation via a smoothed ``Vdseff`` (MEXP) and an ``Esat*L``
  degradation factor, both with nonlinear temperature laws (AT*, TMEXP*,
  KSATIVT*);
* DIBL (ETA0/PDIBL2) and channel-length modulation (PCLM);
* bias-dependent source/drain series resistance (RSW*/RDW*) solved by a
  damped fixed point;
* band-tail effective temperature (T0/D0) saturating the subthreshold swing
  and a temperature-independent source-drain tunneling floor (ITUN/STUN)
  that bounds the OFF-current collapse -- the two effects that make 10 K
  behaviour qualitatively different from a naive kT/q extrapolation.

Sign conventions: the public API takes *terminal* voltages ``vgs`` and
``vds`` referenced to the source.  For p-FinFETs these are negative in
normal operation; drain current is returned signed (negative for p-devices
in conduction), matching SPICE conventions.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.device import constants as const
from repro.device.mobility import (
    degradation_coefficients,
    low_field_mobility,
    mobility_with_coefficients,
)
from repro.device.params import FinFETParams
from repro.device.thermal import (
    cooldown_fraction,
    effective_thermal_voltage,
    subthreshold_slope_factor,
    threshold_voltage,
)

__all__ = ["FinFET", "TABLE_ROW", "normalized_charge", "parameter_table",
           "patch_table", "stack_models", "table_model"]

# Beyond this normalized overdrive the Lambert-W argument overflows double
# precision; switch to the (very accurate) asymptotic expansion.
_LAMBERT_SWITCH = 500.0


def _lambertw0(x: np.ndarray) -> np.ndarray:
    """Principal-branch Lambert W for real ``x >= 0``, to machine precision.

    Same mathematical function as ``scipy.special.lambertw(x).real`` on
    the non-negative axis, but evaluated with a real-arithmetic Halley
    iteration: the scipy ufunc goes through complex arithmetic and
    dominates the compact-model hot path.  A log-based (large x) or
    rational (small x) initial guess puts the cubically convergent
    iteration within machine precision in three steps; a test pins
    agreement with scipy to ~1e-14 relative across the full range.
    """
    lx = np.log(np.maximum(x, 1e-300))
    w = np.where(x > np.e, lx - np.log(np.maximum(lx, 1.0)), x / (1.0 + x))
    for _ in range(2):
        ew = np.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        w = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    # Two Halley steps reach ~1e-8; one Newton polish doubles the digits.
    ew = np.exp(w)
    return w - (w * ew - x) / (ew * (w + 1.0))


def normalized_charge(u: np.ndarray) -> np.ndarray:
    """Solve ``2q + ln(q) = u`` for the normalized inversion charge q > 0.

    Exact solution ``q = W0(2 * exp(u)) / 2``; for large ``u`` the argument
    overflows and the asymptotic ``W(x) ~ ln x - ln ln x`` is used instead.

    >>> import numpy as np
    >>> q = normalized_charge(np.array([0.0]))
    >>> bool(abs(2 * q[0] + np.log(q[0])) < 1e-12)
    True
    """
    u = np.asarray(u, dtype=float)
    q = np.empty_like(u)
    small = u < _LAMBERT_SWITCH
    if small.all():
        return 0.5 * _lambertw0(2.0 * np.exp(u))
    if small.any():
        q[small] = 0.5 * _lambertw0(2.0 * np.exp(u[small]))
    big = ~small
    if big.any():
        x = u[big] + np.log(2.0)
        w = x - np.log(x)
        # One Newton step of w + ln w = x polishes to ~1e-12 relative.
        w = w - (w + np.log(w) - x) * w / (w + 1.0)
        q[big] = 0.5 * w
    return q


class _TempDerived(NamedTuple):
    """Temperature-derived model quantities cached by :class:`FinFET`.

    Everything here depends only on the parameters and the lattice
    temperature -- which a circuit fixes for a whole solve -- so the
    Newton inner loop should never recompute it per ``ids`` call.  Each
    field is a scalar for one parameter record and a per-device array for
    a stacked parameter table.
    """

    vt: np.ndarray | float
    """Effective thermal voltage k*T_eff/q in V."""
    vth0: np.ndarray | float
    """Zero-bias threshold-voltage magnitude in V."""
    vsat: np.ndarray | float
    """Saturation velocity after its temperature law in m/s."""
    mexp: np.ndarray | float
    """Vdseff smoothing exponent after its temperature law."""
    ksativ: np.ndarray | float
    """Pinch-off (Vdsat) scaling after its temperature law."""
    u0: np.ndarray | float
    """Low-field mobility U0(T) in m^2/Vs."""
    ua: np.ndarray | float
    """Surface-roughness degradation coefficient UA(T)."""
    ud: np.ndarray | float
    """Coulomb-scattering degradation coefficient UD(T)."""
    eu: np.ndarray | float
    """Roughness exponent EU(T)."""


class FinFET:
    """Evaluable FinFET device (or batch of devices) bound to parameters.

    The heavy lifting happens in :meth:`ids`; everything else (conductances,
    capacitances, curve helpers) derives from it.

    Parameters
    ----------
    params:
        A :class:`FinFETParams` record, or the per-device parameter table
        built by :func:`stack_models`.  ``params.sign`` (+1 n, -1 p)
        mirrors biases and current; ``params.nfin`` multiplies current and
        capacitance.  The model equations are elementwise, so a table
        evaluates each device exactly as its own record would.
    """

    def __init__(self, params: FinFETParams | SimpleNamespace):
        self.params = params
        self._by_temperature: dict[float, _TempDerived] = {}

    def _derived(self, temperature_k: float) -> _TempDerived:
        """Temperature-derived quantities, computed once per temperature.

        The solver evaluates ``ids`` thousands of times per transient at
        one fixed temperature; vth/vsat/mexp/ksativ and the mobility
        coefficients only depend on the bound params and
        ``temperature_k``, so they are cached here, keyed by temperature
        alone: bind a new ``FinFET`` rather than mutate its params.
        """
        derived = self._by_temperature.get(temperature_k)
        if derived is not None:
            return derived
        p = self.params
        dtn = cooldown_fraction(temperature_k)
        vsat_factor = 1.0 + p.AT * dtn + p.AT1 * dtn * dtn + p.AT2 * dtn**3
        ua, ud, eu = degradation_coefficients(temperature_k, p)
        derived = _TempDerived(
            vt=effective_thermal_voltage(temperature_k, p),
            vth0=threshold_voltage(temperature_k, p),
            vsat=np.maximum(p.VSAT * vsat_factor, 1e3),
            mexp=np.maximum(p.MEXP + p.TMEXP1 * dtn + p.TMEXP2 * dtn * dtn,
                            1.2),
            ksativ=np.maximum(
                p.KSATIV * (1.0 + p.KSATIVT1 * dtn + p.KSATIVT2 * dtn * dtn),
                0.1),
            u0=low_field_mobility(temperature_k, p),
            ua=ua,
            ud=ud,
            eu=eu,
        )
        self._by_temperature[temperature_k] = derived
        return derived

    # ------------------------------------------------------------------ #
    # Core current
    # ------------------------------------------------------------------ #
    def _ids_intrinsic(
        self,
        vgs: np.ndarray,
        vds: np.ndarray,
        temperature_k: float,
    ) -> np.ndarray:
        """Channel current (A, positive) for *internal* positive vgs/vds."""
        p = self.params
        d = self._derived(temperature_k)
        vt = d.vt
        nslope = subthreshold_slope_factor(vds, p)
        vth_eff = d.vth0 - p.ETA0 * vds / (1.0 + p.PDIBL2 * vds)

        u_s = (vgs - vth_eff) / (nslope * vt)
        qs = normalized_charge(u_s)

        mu = mobility_with_coefficients(vgs, qs, np.maximum(vth_eff, 0.0),
                                        p.ETAMOB, d.u0, d.ua, d.ud, d.eu)
        esat_l = 2.0 * d.vsat * p.lgate / np.maximum(mu, 1e-6)

        # Smooth pinch-off voltage: strong-inversion branch ~2*n*vt*qs capped
        # by Esat*L, plus a ~3*vt subthreshold floor.
        vov = 2.0 * nslope * vt * qs
        vdsat = d.ksativ * (vov * esat_l / (vov + esat_l) + 3.0 * vt)
        mexp = d.mexp
        ratio = np.maximum(vds, 0.0) / vdsat
        vdseff = vds / np.power(1.0 + np.power(ratio, mexp), 1.0 / mexp)

        u_d = u_s - vdseff / vt
        qd = normalized_charge(u_d)

        i_norm = (qs * qs + qs) - (qd * qd + qd)
        prefactor = (
            2.0
            * nslope
            * mu
            * p.cox
            * (p.weff * p.nfin / p.lgate)
            * vt
            * vt
        )
        ids = prefactor * i_norm
        ids = ids / (1.0 + vdseff / esat_l)
        ids = ids * (1.0 + p.PCLM * np.maximum(vds - vdseff, 0.0))

        # Source-drain tunneling / GIDL-like floor: nearly temperature
        # independent, weak gate control (large swing STUN), vanishes at
        # vds = 0.
        floor = (
            p.ITUN
            * p.nfin
            * np.exp(np.clip((vgs - p.VTH0) / p.STUN, -60.0, 3.0))
            * (vds / (vds + 0.1))
        )
        return ids + np.maximum(floor, 0.0)

    def _series_resistances(self, qs_proxy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bias-dependent per-device source/drain resistances in Ohm."""
        p = self.params
        rs = (p.RSWMIN + p.RSW / (1.0 + qs_proxy)) / p.nfin
        rd = (p.RDWMIN + p.RDW / (1.0 + qs_proxy)) / p.nfin
        return rs, rd

    def ids(
        self,
        vgs: np.ndarray | float,
        vds: np.ndarray | float,
        temperature_k: float,
    ) -> np.ndarray:
        """Return the signed drain current in A.

        Accepts scalars or broadcastable arrays for ``vgs``/``vds``.  For
        p-devices apply negative bias voltages; the returned current is then
        negative, as a circuit simulator expects.
        """
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        vgs, vds = np.broadcast_arrays(vgs, vds)
        # p-devices evaluate the symmetric n-type equations on mirrored
        # biases (sign -1); multiplying by +1 changes no bit.
        s = self.params.sign
        return s * self._ids_forward(s * vgs, s * vds, temperature_k)

    def _ids_forward(
        self, vgs: np.ndarray, vds: np.ndarray, temperature_k: float
    ) -> np.ndarray:
        """Signed current for n-convention biases, handling vds < 0 by
        source/drain exchange (the device is physically symmetric)."""
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        reverse = vds < 0.0
        vgs_eff = np.where(reverse, vgs - vds, vgs)
        vds_eff = np.abs(vds)

        ids = self._ids_with_rseries(vgs_eff, vds_eff, temperature_k)
        return np.where(reverse, -ids, ids)

    def _ids_with_rseries(
        self, vgs: np.ndarray, vds: np.ndarray, temperature_k: float
    ) -> np.ndarray:
        """Positive-bias current including the series-resistance fixed point."""
        p = self.params
        d = self._derived(temperature_k)
        nslope = subthreshold_slope_factor(vds, p)
        qs_proxy = normalized_charge((vgs - d.vth0) / (nslope * d.vt))
        rs, rd = self._series_resistances(qs_proxy)

        ids = self._ids_intrinsic(vgs, vds, temperature_k)
        for _ in range(3):
            vgs_int = np.maximum(vgs - ids * rs, 0.0)
            vds_int = np.maximum(vds - ids * (rs + rd), 0.0)
            ids_new = self._ids_intrinsic(vgs_int, vds_int, temperature_k)
            ids = 0.5 * ids + 0.5 * ids_new
        return ids

    # ------------------------------------------------------------------ #
    # Small-signal and capacitance helpers
    # ------------------------------------------------------------------ #
    def gm(
        self, vgs: float, vds: float, temperature_k: float, delta: float = 1e-4
    ) -> float:
        """Transconductance dIds/dVgs in S (central finite difference)."""
        hi = self.ids(vgs + delta, vds, temperature_k)
        lo = self.ids(vgs - delta, vds, temperature_k)
        return float((hi - lo) / (2.0 * delta))

    def gds(
        self, vgs: float, vds: float, temperature_k: float, delta: float = 1e-4
    ) -> float:
        """Output conductance dIds/dVds in S (central finite difference)."""
        hi = self.ids(vgs, vds + delta, temperature_k)
        lo = self.ids(vgs, vds - delta, temperature_k)
        return float((hi - lo) / (2.0 * delta))

    def gate_capacitance(self) -> float:
        """Lumped gate input capacitance in F (all fins)."""
        return self.params.nfin * self.params.cgate_fin

    def drain_capacitance(self) -> float:
        """Lumped drain parasitic capacitance in F (all fins)."""
        return self.params.nfin * (self.params.COV + self.params.CJD)

    # ------------------------------------------------------------------ #
    # Curve helpers used by measurement/calibration/plotting
    # ------------------------------------------------------------------ #
    def transfer_curve(
        self,
        vds: float,
        temperature_k: float,
        vgs: np.ndarray | None = None,
        n_points: int = 61,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (vgs, ids) for an Ids-Vgs sweep at fixed ``vds``.

        For p-devices pass negative ``vds``; the sweep then runs from 0 to
        -VDD automatically.
        """
        if vgs is None:
            vgs = self.params.sign * np.linspace(0.0, const.VDD, n_points)
        ids = self.ids(vgs, vds, temperature_k)
        return np.asarray(vgs), ids

    def ion(self, temperature_k: float, vdd: float = const.VDD) -> float:
        """ON-current magnitude at |Vgs| = |Vds| = Vdd in A."""
        sign = self.params.sign
        return float(abs(self.ids(sign * vdd, sign * vdd, temperature_k)))

    def ioff(self, temperature_k: float, vdd: float = const.VDD) -> float:
        """OFF-current magnitude at Vgs = 0, |Vds| = Vdd in A."""
        sign = self.params.sign
        return float(abs(self.ids(0.0, sign * vdd, temperature_k)))

    def effective_current(self, temperature_k: float, vdd: float = const.VDD) -> float:
        """Switching effective current Ieff = (IH + IL)/2 in A.

        The standard Na/Nose effective-current metric used by the analytic
        characterization engine: IH = I(Vgs=Vdd, Vds=Vdd/2),
        IL = I(Vgs=Vdd/2, Vds=Vdd).
        """
        sign = self.params.sign
        ih = abs(self.ids(sign * vdd, sign * vdd / 2.0, temperature_k))
        il = abs(self.ids(sign * vdd / 2.0, sign * vdd, temperature_k))
        return float((ih + il) / 2.0)


#: Rows of the parameter table :func:`stack_models` builds: every numeric
#: record field plus the derived properties the current equations read.
_TABLE_ROWS = tuple(
    f.name for f in dataclasses.fields(FinFETParams) if f.name != "polarity"
) + ("weff", "cox", "cgate_fin", "sign")

#: Row of each field in a parameter table.
TABLE_ROW = {name: row for row, name in enumerate(_TABLE_ROWS)}

#: The fields the derived rows (weff, cox, cgate_fin) are computed from.
_GEOMETRY = frozenset({"hfin", "tfin", "eot", "lgate", "COV"})


def parameter_table(records) -> np.ndarray:
    """The ``(rows, records)`` table of parameter records, one column
    each."""
    return np.array(
        [[getattr(p, name) for p in records] for name in _TABLE_ROWS],
        dtype=float,
    )


def patch_table(base: np.ndarray, rows: list[int], values) -> np.ndarray:
    """One column per entry of ``values``: ``base`` (one record's
    ``(rows, 1)`` table) with ``rows`` set to that entry; the derived rows
    are recomputed, by :class:`FinFETParams`' own properties, only when
    one of their inputs is among the patched rows."""
    values = np.array(values, dtype=float)
    table = np.repeat(base, len(values), axis=1)
    table[rows] = values.T
    if _GEOMETRY & {_TABLE_ROWS[r] for r in rows}:
        fields = SimpleNamespace(**dict(zip(_TABLE_ROWS, table)))
        for name in ("weff", "cox", "cgate_fin"):
            # The rows are views: cgate_fin reads the fresh weff and cox.
            table[TABLE_ROW[name]] = getattr(FinFETParams, name).fget(fields)
    return table


def table_model(table: np.ndarray) -> FinFET:
    """An evaluator over a parameter table, one device per column."""
    return FinFET(SimpleNamespace(**dict(zip(_TABLE_ROWS, table))))


def stack_models(models: list[FinFET], counts, tile: int = 1) -> FinFET:
    """Build a batch evaluator over ``models`` repeated ``counts`` times.

    ``counts[i]`` devices share ``models[i]`` (a scalar repeats every
    model that often); the returned object's ``ids`` expects bias arrays
    laid out as the concatenation of each model's devices (optionally
    ``tile`` copies of that layout back to back, for multi-point
    finite-difference evaluation).  Its params are one ``(rows,
    devices)`` table with each row bound to its field name.  Models that
    share one params record (a batch of SPICE replicas built from a few
    mismatch samples) read that record once: the table is built per
    distinct record and its columns expanded by index.
    """
    records = {id(m.params): m.params for m in models}
    column = {key: k for k, key in enumerate(records)}
    cols = [column[id(m.params)] for m in models]
    table = parameter_table(records.values())
    return table_model(np.tile(table[:, np.repeat(cols, counts)], tile))
