"""Stacked calibration equals the per-curve oracle (``tests/device/oracle.py``).

A residual evaluation of :class:`Calibrator` is one stacked model call per
temperature over every parameter set (table column) it is given; these tests hold each
row of it, and the fits built on it, exactly (``==``) to the per-curve
loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.device import Calibrator, default_nfet, default_pfet
from repro.device.calibration import _STAGE_SPECS, _StageSpec
from repro.device.finfet import parameter_table
from repro.device.params import STAGE_PARAMETERS
from tests.device import oracle

INITIAL = {"n": default_nfet, "p": default_pfet}

#: A 300 K strong-inversion window: the linear transfer curve and the
#: output curve at the lowest gate bias never reach it and drop out whole.
HIGH_WINDOW = _StageSpec("high_window", 300.0, True, True, True, 4e-5, 1e-3)
#: A window no measured point falls into.
EMPTY_WINDOW = _StageSpec("empty_window", 300.0, True, True, True, 1.0, 2.0)


def _random_sets(cal: Calibrator, names: list[str], k: int, seed: int):
    """``k`` parameter sets with ``names`` drawn uniformly inside bounds."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        values = {}
        for n in names:
            b = cal.bounds[n]
            values[n] = b.decode(rng.uniform(b.encoded_lo, b.encoded_hi))
        out.append(cal.initial.copy(**values))
    return out


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("polarity", ["n", "p"])
@pytest.mark.parametrize(
    "spec",
    [*_STAGE_SPECS, HIGH_WINDOW, EMPTY_WINDOW],
    ids=lambda s: s.name,
)
def test_stacked_residuals_equal_per_curve_oracle(iv_datasets, polarity, spec, k):
    cal = Calibrator(iv_datasets[polarity], INITIAL[polarity]())
    names = STAGE_PARAMETERS.get(spec.name, STAGE_PARAMETERS["polish_room"])
    sets = _random_sets(cal, [n for n in names if n in cal.bounds], k, seed=k)
    curves = cal._stage_curves(spec)
    stacked = cal._residuals(parameter_table(sets), cal._stage_data(spec))
    assert len(stacked) == k
    for params, rows in zip(sets, stacked):
        np.testing.assert_array_equal(
            rows, oracle.residuals(params, curves, spec), strict=True
        )


@pytest.mark.parametrize("polarity", ["n", "p"])
def test_windows_cover_the_edge_cases(iv_datasets, polarity):
    """The specs above do exercise both temperatures and empty curves."""
    cal = Calibrator(iv_datasets[polarity], INITIAL[polarity]())
    cryo = next(s for s in _STAGE_SPECS if s.name == "cryogenic")
    assert [w.temperature_k for w in cal._stage_data(cryo)] == [10.0, 300.0]

    def masked_out(curve, spec):
        mag = np.abs(curve.ids)
        return not ((mag >= spec.current_lo) & (mag <= spec.current_hi)).any()

    curves = cal._stage_curves(HIGH_WINDOW)
    assert any(masked_out(c, HIGH_WINDOW) for c in curves)
    assert not all(masked_out(c, HIGH_WINDOW) for c in curves)
    assert cal._stage_data(EMPTY_WINDOW) == []


@pytest.mark.parametrize("polarity", ["n", "p"])
def test_fit_equals_per_curve_oracle(iv_datasets, polarity):
    stages = ("subthreshold", "dibl")
    got = Calibrator(iv_datasets[polarity], INITIAL[polarity]()).calibrate(stages)
    want = oracle.OracleCalibrator(
        iv_datasets[polarity], INITIAL[polarity]()
    ).calibrate(stages)
    assert got.params == want.params
    assert got.stages == want.stages
    assert [s.n_evaluations for s in got.stages] == [
        s.n_evaluations for s in want.stages
    ]
    assert got.validation == want.validation


def test_calibrate_is_spanned_per_stage(iv_datasets):
    cal = Calibrator(iv_datasets["p"], default_pfet())
    telemetry.reset()
    telemetry.enable()
    try:
        result = cal.calibrate(("subthreshold", "dibl"))
        (root,) = telemetry.trace_roots()
        metrics = telemetry.metrics_summary()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert (root.name, root.attrs) == ("device.calibrate", {"polarity": "p"})
    assert [(c.name, c.attrs) for c in root.children] == [
        ("device.calibrate_stage", {"stage": "subthreshold"}),
        ("device.calibrate_stage", {"stage": "dibl"}),
    ]
    # Each stage fits one 300 K window: every evaluated parameter set
    # adds the window's rows, and fewer model calls than sets are made.
    rows = {s.name: len(cal._stage_data(s)[0].target) for s in _STAGE_SPECS}
    assert metrics["device.residual_rows"] == sum(
        s.n_evaluations * rows[s.name] for s in result.stages
    )
    assert 0 < metrics["device.model_calls"] < result.total_evaluations
