"""Test oracles for the device layer.

Calibration: :class:`repro.device.calibration.Calibrator` masks each
stage's fit window once and evaluates every parameter set of a residual
or of a finite-difference Jacobian in one stacked model call per
temperature.  :func:`residuals` and :class:`OracleCalibrator` are the
plain counterpart it is pinned against: each residual builds one
:class:`FinFET`, calls it once per curve and masks the result, and scipy
forms the Jacobian one column evaluation after another.  Used by
``tests/device/test_calibration_stacked.py`` (equality with ``==``).

Compact model: :class:`repro.device.finfet.FinFET` is one evaluator for a
single parameter record and for the per-device parameter table that
``stack_models`` builds, with polarity as a sign.  :class:`OracleFinFET`
is the two-evaluator design it replaced: a scalar device that branches
on ``polarity`` and caches its temperature-derived quantities per
``(id(params), T)`` with Python ``max``/``float`` arithmetic, and
:func:`oracle_stack_models`, which gathers those per-model scalars into
repeated arrays.  Used by ``tests/device/test_evaluator_equivalence.py``
(byte equality).

Hold SNM: :mod:`repro.device.sram_cell` solves every point of every VTC
a call needs as one batched ``dc_operating_point``.
:func:`oracle_inverter_vtc`, :func:`oracle_hold_snm` and
:func:`oracle_monte_carlo` are the per-point loop it replaced: one
single-circuit DC solve per input voltage, each with freshly built
FinFETs.  Used by ``tests/device/test_sram_batched.py`` (equality with
``==``) and ``benchmarks/test_bench_dc_batch.py`` (the speedup
baseline).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
from scipy.optimize import least_squares

from repro.device import constants as const
from repro.device.calibration import (
    LOG_FLOOR,
    Calibrator,
    StageResult,
    _StageSpec,
)
from repro.device.finfet import FinFET, normalized_charge
from repro.device.measurement import IVCurve
from repro.device.mobility import low_field_mobility, mobility_with_coefficients
from repro.device.params import STAGE_PARAMETERS, FinFETParams
from repro.device.sram_cell import SRAMCellAnalysis, _butterfly_snm
from repro.device.thermal import cooldown_fraction, subthreshold_slope_factor
from repro.spice import DC, Circuit, dc_operating_point

__all__ = ["OracleCalibrator", "OracleFinFET", "oracle_hold_snm",
           "oracle_inverter_vtc", "oracle_monte_carlo", "oracle_stack_models",
           "residuals"]


def residuals(
    params: FinFETParams, curves: list[IVCurve], spec: _StageSpec
) -> np.ndarray:
    """Log-current residual vector over the stage's fit window."""
    device = FinFET(params)
    chunks: list[np.ndarray] = []
    for curve in curves:
        ids_model = device.ids(curve.vgs, curve.vds, curve.temperature_k)
        mag = np.abs(curve.ids)
        mask = (mag >= spec.current_lo) & (mag <= spec.current_hi)
        if not mask.any():
            continue
        r = np.log10(np.abs(ids_model[mask]) + LOG_FLOOR) - np.log10(
            mag[mask] + LOG_FLOOR
        )
        chunks.append(r)
    if not chunks:
        return np.zeros(1)
    return np.concatenate(chunks)


class OracleCalibrator(Calibrator):
    """Runs each stage on :func:`residuals`, with scipy's serial Jacobian."""

    def _run_stage(
        self, params: FinFETParams, spec: _StageSpec
    ) -> tuple[FinFETParams, StageResult]:
        names = [n for n in STAGE_PARAMETERS[spec.name] if n in self.bounds]
        curves = self._stage_curves(spec)
        bounds = [self.bounds[n] for n in names]
        x0 = np.array(
            [b.encode(float(getattr(params, n))) for n, b in zip(names, bounds)]
        )
        lo = np.array([b.encoded_lo for b in bounds])
        hi = np.array([b.encoded_hi for b in bounds])
        x0 = np.clip(x0, lo + 1e-9, hi - 1e-9)
        n_evals = 0

        def objective(x: np.ndarray) -> np.ndarray:
            nonlocal n_evals
            n_evals += 1
            trial = params.copy(
                **{n: b.decode(v) for n, b, v in zip(names, bounds, x)}
            )
            return residuals(trial, curves, spec)

        r0 = objective(x0)
        sol = least_squares(
            objective,
            x0,
            bounds=(lo, hi),
            method="trf",
            diff_step=1e-3,
            xtol=1e-10,
            ftol=1e-10,
            max_nfev=400,
        )
        fitted = params.copy(
            **{n: b.decode(v) for n, b, v in zip(names, bounds, sol.x)}
        )
        return fitted, StageResult(
            name=spec.name,
            parameters={n: float(getattr(fitted, n)) for n in names},
            cost_before=float(np.sqrt(np.mean(r0**2))),
            cost_after=float(np.sqrt(np.mean(sol.fun**2))),
            n_evaluations=n_evals,
        )


class OracleFinFET:
    """Scalar FinFET evaluator with a polarity branch and a per-model cache."""

    _DERIVED = ("vt", "vth0", "vsat", "mexp", "ksativ", "u0", "ua", "ud", "eu")

    def __init__(self, params: FinFETParams):
        self.params = params
        self._derived_cache: dict[tuple[int, float], tuple[dict, FinFETParams]] = {}

    def _derived(self, temperature_k: float) -> dict:
        key = (id(self.params), temperature_k)
        hit = self._derived_cache.get(key)
        if hit is not None:
            return hit[0]
        p = self.params
        dtn = cooldown_fraction(temperature_k)
        scaled = temperature_k * (1.0 + p.D0)
        teff = float(np.sqrt(scaled * scaled + p.T0 * p.T0))
        vth0 = (p.VTH0 + (p.PHIG - 4.25) + p.TVTH * dtn + p.KT12 * dtn * dtn
                + p.KT11 * (const.TNOM / teff - 1.0) / 10.0)
        factor = 1.0 + p.AT * dtn + p.AT1 * dtn * dtn + p.AT2 * dtn**3
        derived = {
            "vt": const.BOLTZMANN_EV * teff,
            "vth0": vth0,
            "vsat": max(p.VSAT * factor, 1e3),
            "mexp": max(p.MEXP + p.TMEXP1 * dtn + p.TMEXP2 * dtn * dtn, 1.2),
            "ksativ": max(p.KSATIV * (1.0 + p.KSATIVT1 * dtn
                                      + p.KSATIVT2 * dtn * dtn), 0.1),
            "u0": low_field_mobility(temperature_k, p),
            "ua": max(p.UA + p.UA1 * dtn + p.UA2 * dtn * dtn, 0.0),
            "ud": max(p.UD + p.UD1 * dtn + p.UD2 * dtn * dtn, 0.0),
            "eu": max(p.EU + p.EU1 * dtn, 1.0),
        }
        self._derived_cache[key] = (derived, p)
        return derived

    def _ids_intrinsic(self, vgs, vds, temperature_k):
        p = self.params
        d = self._derived(temperature_k)
        vt = d["vt"]
        nslope = subthreshold_slope_factor(vds, p)
        vth_eff = d["vth0"] - p.ETA0 * vds / (1.0 + p.PDIBL2 * vds)
        u_s = (vgs - vth_eff) / (nslope * vt)
        qs = normalized_charge(u_s)
        mu = mobility_with_coefficients(vgs, qs, np.maximum(vth_eff, 0.0),
                                        p.ETAMOB, d["u0"], d["ua"], d["ud"],
                                        d["eu"])
        esat_l = 2.0 * d["vsat"] * p.lgate / np.maximum(mu, 1e-6)
        vov = 2.0 * nslope * vt * qs
        vdsat = d["ksativ"] * (vov * esat_l / (vov + esat_l) + 3.0 * vt)
        mexp = d["mexp"]
        ratio = np.maximum(vds, 0.0) / vdsat
        vdseff = vds / np.power(1.0 + np.power(ratio, mexp), 1.0 / mexp)
        qd = normalized_charge(u_s - vdseff / vt)
        i_norm = (qs * qs + qs) - (qd * qd + qd)
        prefactor = (2.0 * nslope * mu * p.cox * (p.weff * p.nfin / p.lgate)
                     * vt * vt)
        ids = prefactor * i_norm
        ids = ids / (1.0 + vdseff / esat_l)
        ids = ids * (1.0 + p.PCLM * np.maximum(vds - vdseff, 0.0))
        floor = (p.ITUN * p.nfin
                 * np.exp(np.clip((vgs - p.VTH0) / p.STUN, -60.0, 3.0))
                 * (vds / (vds + 0.1)))
        return ids + np.maximum(floor, 0.0)

    def _ids_with_rseries(self, vgs, vds, temperature_k):
        p = self.params
        d = self._derived(temperature_k)
        nslope = subthreshold_slope_factor(vds, p)
        qs_proxy = normalized_charge((vgs - d["vth0"]) / (nslope * d["vt"]))
        rs = (p.RSWMIN + p.RSW / (1.0 + qs_proxy)) / p.nfin
        rd = (p.RDWMIN + p.RDW / (1.0 + qs_proxy)) / p.nfin
        ids = self._ids_intrinsic(vgs, vds, temperature_k)
        for _ in range(3):
            vgs_int = np.maximum(vgs - ids * rs, 0.0)
            vds_int = np.maximum(vds - ids * (rs + rd), 0.0)
            ids_new = self._ids_intrinsic(vgs_int, vds_int, temperature_k)
            ids = 0.5 * ids + 0.5 * ids_new
        return ids

    def _ids_forward(self, vgs, vds, temperature_k):
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        reverse = vds < 0.0
        ids = self._ids_with_rseries(np.where(reverse, vgs - vds, vgs),
                                     np.abs(vds), temperature_k)
        return np.where(reverse, -ids, ids)

    def ids(self, vgs, vds, temperature_k):
        vgs, vds = np.broadcast_arrays(np.asarray(vgs, dtype=float),
                                       np.asarray(vds, dtype=float))
        if self.params.polarity == "p":
            return -self._ids_forward(-vgs, -vds, temperature_k)
        return self._ids_forward(vgs, vds, temperature_k)

    def _sign(self) -> float:
        return -1.0 if self.params.polarity == "p" else 1.0

    def gm(self, vgs, vds, temperature_k, delta=1e-4):
        hi = self.ids(vgs + delta, vds, temperature_k)
        lo = self.ids(vgs - delta, vds, temperature_k)
        return float((hi - lo) / (2.0 * delta))

    def gds(self, vgs, vds, temperature_k, delta=1e-4):
        hi = self.ids(vgs, vds + delta, temperature_k)
        lo = self.ids(vgs, vds - delta, temperature_k)
        return float((hi - lo) / (2.0 * delta))

    def ion(self, temperature_k, vdd=const.VDD):
        sign = self._sign()
        return float(abs(self.ids(sign * vdd, sign * vdd, temperature_k)))

    def ioff(self, temperature_k, vdd=const.VDD):
        sign = self._sign()
        return float(abs(self.ids(0.0, sign * vdd, temperature_k)))

    def effective_current(self, temperature_k, vdd=const.VDD):
        sign = self._sign()
        ih = abs(self.ids(sign * vdd, sign * vdd / 2.0, temperature_k))
        il = abs(self.ids(sign * vdd / 2.0, sign * vdd, temperature_k))
        return float((ih + il) / 2.0)


class _OracleStack(OracleFinFET):
    """Per-model scalars gathered into repeated (and tiled) arrays."""

    def __init__(self, models: list[OracleFinFET], counts, tile: int):
        self._models = list(models)
        self._spread = lambda values: np.tile(
            np.repeat(np.array(values, dtype=float), counts), tile)
        names = [f.name for f in dataclasses.fields(FinFETParams)
                 if f.name != "polarity"] + ["weff", "cox", "cgate_fin"]
        self.params = SimpleNamespace(**{
            n: self._spread([getattr(m.params, n) for m in self._models])
            for n in names})
        self._sign_row = self._spread([m._sign() for m in self._models])
        self._stacked: dict[float, dict] = {}

    def _derived(self, temperature_k):
        hit = self._stacked.get(temperature_k)
        if hit is None:
            per = [m._derived(temperature_k) for m in self._models]
            hit = {n: self._spread([d[n] for d in per]) for n in self._DERIVED}
            self._stacked[temperature_k] = hit
        return hit

    def ids(self, vgs, vds, temperature_k):
        vgs, vds = np.broadcast_arrays(np.asarray(vgs, dtype=float),
                                       np.asarray(vds, dtype=float))
        s = self._sign_row
        return s * self._ids_forward(s * vgs, s * vds, temperature_k)


def oracle_stack_models(models: list[OracleFinFET], counts,
                        tile: int = 1) -> OracleFinFET:
    """Batch evaluator over ``models`` repeated ``counts`` times, tiled."""
    return _OracleStack(models, counts, tile)


def oracle_inverter_vtc(
    nfet: FinFETParams,
    pfet: FinFETParams,
    temperature_k: float,
    vdd: float = 0.70,
    n_points: int = 41,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverter VTC, one single-circuit DC solve per input voltage."""
    vin = np.linspace(0.0, vdd, n_points)
    vout = np.empty_like(vin)
    for i, v in enumerate(vin):
        circuit = Circuit("inv_vtc", temperature_k=temperature_k)
        circuit.add_vsource("vdd", "vdd", "0", DC(vdd))
        circuit.add_vsource("vin", "in", "0", DC(float(v)))
        circuit.add_finfet("mp", "out", "in", "vdd", FinFET(pfet),
                           with_parasitics=False)
        circuit.add_finfet("mn", "out", "in", "0", FinFET(nfet),
                           with_parasitics=False)
        vout[i] = dc_operating_point(circuit)["out"]
    return vin, vout


def oracle_hold_snm(
    nfet_left: FinFETParams,
    pfet_left: FinFETParams,
    nfet_right: FinFETParams,
    pfet_right: FinFETParams,
    temperature_k: float,
    vdd: float = 0.70,
    n_points: int = 41,
) -> float:
    """Hold SNM from two per-point VTCs."""
    v1, f1 = oracle_inverter_vtc(nfet_left, pfet_left, temperature_k, vdd,
                                 n_points)
    v2, f2 = oracle_inverter_vtc(nfet_right, pfet_right, temperature_k, vdd,
                                 n_points)
    return _butterfly_snm(v1, f1, v2, f2, vdd)


def oracle_monte_carlo(
    analysis: SRAMCellAnalysis,
    temperature_k: float,
    n_cells: int = 25,
    seed: int = 1,
    n_points: int = 31,
) -> np.ndarray:
    """``SRAMCellAnalysis.monte_carlo`` with one oracle SNM per cell."""
    rng = np.random.default_rng(seed)
    n_samples = analysis.mismatch.sample(analysis.nfet, temperature_k,
                                         2 * n_cells, rng)
    p_samples = analysis.mismatch.sample(analysis.pfet, temperature_k,
                                         2 * n_cells, rng)
    return np.array([
        oracle_hold_snm(n_samples[2 * k], p_samples[2 * k],
                        n_samples[2 * k + 1], p_samples[2 * k + 1],
                        temperature_k, analysis.vdd, n_points)
        for k in range(n_cells)
    ])
