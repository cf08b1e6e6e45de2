"""Staged compact-model calibration against measured I-V data.

Reproduces the extraction flow of paper Section III-A, stage by stage:

1. ``subthreshold``        -- VTH0 (work function), CIT, CDSC from the
   weak-inversion region of the *linear* transfer curve at 300 K.
2. ``mobility``            -- UO, UA, UD, EU from moderate inversion at low
   Vds (300 K).
3. ``series_resistance``   -- RSW/RDW (+ floors) from strong inversion at
   low Vds (300 K).
4. ``dibl``                -- ETA0, PDIBL2, CDSCD from the weak-inversion
   region of the *saturation* transfer curve (300 K).
5. ``velocity_saturation`` -- VSAT, MEXP, KSATIV, PCLM from strong inversion
   in saturation plus the output curves (300 K).
6. ``cryogenic``           -- T0, D0, TVTH, KT11/KT12, UA1/UD1/EU1, UTE, AT,
   TMEXP1, KSATIVT1, ITUN from all 10 K curves.

Each stage runs a bounded trust-region least-squares fit
(:func:`scipy.optimize.least_squares`) on log-current residuals, touching
only its own parameters; later stages therefore refine on top of earlier
ones exactly like the manual flow the paper describes.

A residual evaluation is one compact-model call per temperature on the
parameter table of :func:`~repro.device.finfet.parameter_table` (one
:class:`~repro.device.finfet.FinFET`, as in the SPICE engine), and so is
each finite-difference Jacobian: scipy hands every perturbed parameter
set to the ``workers`` map at once.  A stage's sets differ from its start
record in the stage's parameters only, so each table is that record's
column with those rows patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np
from scipy.optimize import least_squares

from repro import telemetry
from repro.device.finfet import (
    TABLE_ROW,
    FinFET,
    parameter_table,
    patch_table,
    table_model,
)
from repro.device.measurement import (
    IVCurve,
    IVDataset,
    VDS_LINEAR,
    VDS_SATURATION,
)
from repro.device.params import STAGE_PARAMETERS, FinFETParams

__all__ = [
    "ParameterBound",
    "StageResult",
    "CalibrationResult",
    "Calibrator",
    "rms_log_error",
]

#: Additive floor (A) applied inside log residuals; set to the synthetic
#: instrument noise floor so sub-noise currents do not dominate the cost.
LOG_FLOOR: float = 5e-13


@dataclass(frozen=True)
class ParameterBound:
    """Search range of one parameter; ``log`` selects log-space fitting."""

    lo: float
    hi: float
    log: bool = False

    def encode(self, value: float) -> float:
        """Map a parameter value into optimizer space."""
        if self.log:
            return math.log10(min(max(value, self.lo), self.hi))
        return min(max(value, self.lo), self.hi)

    def decode(self, x: float) -> float:
        """Map an optimizer-space value back to a parameter value."""
        return 10.0**x if self.log else x

    @property
    def encoded_lo(self) -> float:
        return math.log10(self.lo) if self.log else self.lo

    @property
    def encoded_hi(self) -> float:
        return math.log10(self.hi) if self.log else self.hi


#: Default bounds for every fittable parameter.
DEFAULT_BOUNDS: dict[str, ParameterBound] = {
    "VTH0": ParameterBound(0.05, 0.45),
    "CIT": ParameterBound(0.0, 0.5),
    "CDSC": ParameterBound(0.0, 0.5),
    "CDSCD": ParameterBound(0.0, 0.5),
    "UO": ParameterBound(0.002, 0.2, log=True),
    "UA": ParameterBound(0.01, 5.0, log=True),
    "UD": ParameterBound(1e-3, 5.0, log=True),
    "EU": ParameterBound(1.0, 3.0),
    "ETAMOB": ParameterBound(0.3, 3.0),
    "RSW": ParameterBound(100.0, 5e4, log=True),
    "RDW": ParameterBound(100.0, 5e4, log=True),
    "RSWMIN": ParameterBound(10.0, 2e4, log=True),
    "RDWMIN": ParameterBound(10.0, 2e4, log=True),
    "ETA0": ParameterBound(0.0, 0.3),
    "PDIBL2": ParameterBound(0.0, 2.0),
    "PCLM": ParameterBound(0.0, 0.5),
    "VSAT": ParameterBound(1e4, 5e5, log=True),
    "MEXP": ParameterBound(1.5, 12.0),
    "KSATIV": ParameterBound(0.3, 3.0),
    "T0": ParameterBound(5.0, 120.0),
    "D0": ParameterBound(0.0, 1.0),
    "KT11": ParameterBound(-0.5, 0.5),
    "KT12": ParameterBound(-0.2, 0.2),
    "TVTH": ParameterBound(-0.2, 0.2),
    "UA1": ParameterBound(0.0, 20.0),
    "UA2": ParameterBound(-10.0, 10.0),
    "UD1": ParameterBound(0.0, 50.0),
    "UD2": ParameterBound(-20.0, 20.0),
    "EU1": ParameterBound(-1.0, 1.0),
    "UTE": ParameterBound(0.0, 3.0),
    "AT": ParameterBound(-0.5, 1.0),
    "TMEXP1": ParameterBound(-2.0, 4.0),
    "KSATIVT1": ParameterBound(-0.5, 1.0),
    "ITUN": ParameterBound(1e-14, 1e-9, log=True),
}


@dataclass(frozen=True)
class StageResult:
    """Outcome of one extraction stage."""

    name: str
    parameters: dict[str, float]
    cost_before: float
    cost_after: float
    n_evaluations: int

    @property
    def improvement(self) -> float:
        """Relative cost reduction in [0, 1]."""
        if self.cost_before <= 0:
            return 0.0
        return 1.0 - self.cost_after / self.cost_before


@dataclass
class CalibrationResult:
    """Final calibrated parameters plus per-stage and validation records."""

    params: FinFETParams
    stages: list[StageResult] = field(default_factory=list)
    validation: dict[str, float] = field(default_factory=dict)

    @property
    def total_evaluations(self) -> int:
        return sum(s.n_evaluations for s in self.stages)

    def stage(self, name: str) -> StageResult:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)


def rms_log_error(model_ids: np.ndarray, measured_ids: np.ndarray) -> float:
    """RMS error between two curves in log10-current decades.

    This is the Fig.-3 figure of merit: how far (in decades) the calibrated
    model tracks the measurement across the full sweep.
    """
    a = np.log10(np.abs(np.asarray(model_ids)) + LOG_FLOOR)
    b = np.log10(np.abs(np.asarray(measured_ids)) + LOG_FLOOR)
    return float(np.sqrt(np.mean((a - b) ** 2)))


@dataclass(frozen=True)
class _StageSpec:
    """Which data slice a stage fits and with what weighting."""

    name: str
    temperature_k: float | None  # None => all 10 K curves (cryogenic stage)
    use_linear: bool
    use_saturation: bool
    use_outputs: bool
    current_lo: float  # fit window in A (magnitude)
    current_hi: float


class _Window(NamedTuple):
    """One temperature's masked fit points and measured log10 currents."""

    temperature_k: float
    vgs: np.ndarray
    vds: np.ndarray
    target: np.ndarray


_ROOM = 300.0
_STAGE_SPECS: tuple[_StageSpec, ...] = (
    _StageSpec("subthreshold", _ROOM, True, False, False, 1e-11, 3e-7),
    _StageSpec("mobility", _ROOM, True, False, False, 1e-7, 1e-4),
    _StageSpec("series_resistance", _ROOM, True, False, False, 1e-6, 1e-3),
    _StageSpec("dibl", _ROOM, False, True, False, 1e-11, 3e-7),
    _StageSpec("velocity_saturation", _ROOM, False, True, True, 1e-7, 1e-3),
    # Global room-temperature polish: refit all 300 K parameters jointly on
    # every 300 K curve (the staged windows leave small cross-regime
    # residuals; a final joint refinement is standard extraction practice).
    _StageSpec("polish_room", _ROOM, True, True, True, 1e-12, 1e-3),
    _StageSpec("cryogenic", None, True, True, True, 1e-13, 1e-3),
)


class Calibrator:
    """Fits a :class:`FinFETParams` record to one polarity's dataset.

    Parameters
    ----------
    dataset:
        Measured curves (synthetic campaign output).
    initial:
        Starting parameter record (the detuned defaults).
    bounds:
        Per-parameter search ranges; defaults to :data:`DEFAULT_BOUNDS`.
    cryo_temperature:
        The cryogenic corner present in the dataset (K).
    """

    def __init__(
        self,
        dataset: IVDataset,
        initial: FinFETParams,
        bounds: dict[str, ParameterBound] | None = None,
        cryo_temperature: float = 10.0,
    ):
        if dataset.polarity != initial.polarity:
            raise ValueError(
                f"dataset polarity {dataset.polarity!r} != "
                f"initial params polarity {initial.polarity!r}"
            )
        self.dataset = dataset
        self.initial = initial
        self.bounds = dict(DEFAULT_BOUNDS if bounds is None else bounds)
        self.cryo_temperature = cryo_temperature

    # ------------------------------------------------------------------ #
    def _stage_curves(self, spec: _StageSpec) -> list[IVCurve]:
        """Collect the curves one stage fits against."""
        temps: list[float]
        if spec.temperature_k is None:
            # The cryogenic parameters (T0, D0, ITUN, ...) are not perfectly
            # orthogonal to room temperature, so the cryogenic stage fits
            # *all* corners jointly: it must explain 10 K without degrading
            # the already-extracted 300 K behaviour.
            temps = list(self.dataset.temperatures)
        else:
            temps = [spec.temperature_k]
        curves: list[IVCurve] = []
        for t in temps:
            if spec.use_linear:
                curves.append(self.dataset.transfer(t, VDS_LINEAR))
            if spec.use_saturation:
                curves.append(self.dataset.transfer(t, VDS_SATURATION))
            if spec.use_outputs:
                curves.extend(self.dataset.outputs(t))
        return curves

    def _stage_data(self, spec: _StageSpec) -> list[_Window]:
        """The stage's fit window, grouped by temperature in curve order.

        The mask depends only on the measurement, so each temperature's
        masked bias points and measured log-currents are fixed for the
        stage and computed once.
        """
        windows: list[_Window] = []
        curves = self._stage_curves(spec)
        for temperature_k, group in groupby(curves, lambda c: c.temperature_k):
            vgs, vds, target = [], [], []
            for curve in group:
                mag = np.abs(curve.ids)
                mask = (mag >= spec.current_lo) & (mag <= spec.current_hi)
                vgs.append(curve.vgs[mask])
                vds.append(curve.vds[mask])
                target.append(np.log10(mag[mask] + LOG_FLOOR))
            target = np.concatenate(target)
            if len(target):
                windows.append(_Window(temperature_k, np.concatenate(vgs),
                                       np.concatenate(vds), target))
        return windows

    def _residuals(
        self, table: np.ndarray, windows: list[_Window]
    ) -> list[np.ndarray]:
        """Log-current residual vector of each column of a parameter table
        (:func:`~repro.device.finfet.parameter_table`).

        One stacked model call per temperature evaluates every set on the
        tiled window; rows keep the per-curve order.
        """
        k = table.shape[1]
        if not windows:
            return [np.zeros(1) for _ in range(k)]
        blocks = []
        for w in windows:
            n = len(w.target)
            ids = table_model(np.repeat(table, n, axis=1)).ids(
                np.tile(w.vgs, k), np.tile(w.vds, k), w.temperature_k
            )
            blocks.append(
                np.log10(np.abs(ids).reshape(k, n) + LOG_FLOOR) - w.target
            )
        rows = np.concatenate(blocks, axis=1)
        telemetry.count("device.model_calls", len(windows))
        telemetry.count("device.residual_rows", rows.size)
        return list(rows)

    def _run_stage(
        self, params: FinFETParams, spec: _StageSpec
    ) -> tuple[FinFETParams, StageResult]:
        names = [
            n for n in STAGE_PARAMETERS[spec.name] if n in self.bounds
        ]
        windows = self._stage_data(spec)
        bounds = [self.bounds[n] for n in names]
        x0 = np.array(
            [b.encode(float(getattr(params, n))) for n, b in zip(names, bounds)]
        )
        lo = np.array([b.encoded_lo for b in bounds])
        hi = np.array([b.encoded_hi for b in bounds])
        # Nudge the start strictly inside the box (least_squares requirement).
        x0 = np.clip(x0, lo + 1e-9, hi - 1e-9)
        n_evals = 0
        # Every parameter set of the stage differs from its start record in
        # the stage's own rows only: build that column once, patch per set.
        base = parameter_table([params])
        rows = [TABLE_ROW[n] for n in names]

        def decoded(x: np.ndarray) -> list:
            return [b.decode(v) for b, v in zip(bounds, x)]

        def evaluate(xs) -> list[np.ndarray]:
            nonlocal n_evals
            values = [decoded(x) for x in xs]
            n_evals += len(values)
            return self._residuals(patch_table(base, rows, values), windows)

        r0 = evaluate([x0])[0]
        cost_before = float(np.sqrt(np.mean(r0**2)))
        sol = least_squares(
            lambda x: evaluate([x])[0],
            x0,
            bounds=(lo, hi),
            method="trf",
            diff_step=1e-3,
            xtol=1e-10,
            ftol=1e-10,
            max_nfev=400,
            # The finite-difference Jacobian maps over every perturbed x;
            # scipy still picks the steps and forms the differences.
            workers=lambda fun, xs: evaluate(xs),
        )
        fitted = params.copy(**dict(zip(names, decoded(sol.x))))
        cost_after = float(np.sqrt(np.mean(sol.fun**2)))
        result = StageResult(
            name=spec.name,
            parameters={
                n: float(getattr(fitted, n)) for n in names
            },
            cost_before=cost_before,
            cost_after=cost_after,
            n_evaluations=n_evals,
        )
        return fitted, result

    # ------------------------------------------------------------------ #
    def calibrate(self, stages: tuple[str, ...] | None = None) -> CalibrationResult:
        """Run the staged extraction and validate against every curve.

        ``stages`` restricts the flow (mainly for tests); default runs all
        six stages in the paper's order.
        """
        wanted = set(stages) if stages is not None else None
        params = self.initial
        results: list[StageResult] = []
        with telemetry.span("device.calibrate", polarity=self.initial.polarity):
            for spec in _STAGE_SPECS:
                if wanted is not None and spec.name not in wanted:
                    continue
                with telemetry.span("device.calibrate_stage", stage=spec.name):
                    params, stage_result = self._run_stage(params, spec)
                results.append(stage_result)
            validation = self.validate(params)
        return CalibrationResult(params=params, stages=results, validation=validation)

    def validate(self, params: FinFETParams) -> dict[str, float]:
        """Return RMS log-decade error per measured curve (Fig.-3 metric)."""
        device = FinFET(params)
        out: dict[str, float] = {}
        for curve in self.dataset.curves:
            ids_model = device.ids(curve.vgs, curve.vds, curve.temperature_k)
            key = (
                f"{curve.polarity}fet_{curve.kind}_T{curve.temperature_k:g}K_"
                f"bias{abs(curve.fixed_bias) * 1e3:.0f}mV"
            )
            out[key] = rms_log_error(ids_model, curve.ids)
        return out
