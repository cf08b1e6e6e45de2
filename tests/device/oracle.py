"""Test oracle for calibration: one model call per curve per residual.

:class:`repro.device.calibration.Calibrator` masks each stage's fit window
once and evaluates every parameter set of a residual or of a
finite-difference Jacobian in one stacked model call per temperature.
This module is the plain counterpart it is pinned against: each residual
builds one :class:`FinFET`, calls it once per curve and masks the result,
and scipy forms the Jacobian one column evaluation after another.

Used by ``tests/device/test_calibration_stacked.py`` (equality with ``==``).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares

from repro.device.calibration import (
    LOG_FLOOR,
    Calibrator,
    StageResult,
    _StageSpec,
)
from repro.device.finfet import FinFET
from repro.device.measurement import IVCurve
from repro.device.params import STAGE_PARAMETERS, FinFETParams

__all__ = ["OracleCalibrator", "residuals"]


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
