"""Batched hold-SNM analysis equals the per-point VTC loop (``==``).

:mod:`repro.device.sram_cell` solves every VTC point of a call as one
replica of one batched DC solve; ``tests/device/oracle.py`` keeps the
loop of single-circuit solves it replaced.  Every output must be
bit-equal at 300 K and 10 K, and degenerate sizes must be rejected with
a typed error instead of a silent 0 V margin or an empty population.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cells import TechModels
from repro.device import golden_nfet, golden_pfet
from repro.device.sram_cell import SRAMCellAnalysis, hold_snm, inverter_vtc
from repro.errors import ConfigError

from .oracle import oracle_hold_snm, oracle_inverter_vtc, oracle_monte_carlo

TEMPERATURES = (300.0, 10.0)


@pytest.fixture(scope="module")
def analysis() -> SRAMCellAnalysis:
    return SRAMCellAnalysis.bitcell(TechModels(golden_nfet(), golden_pfet()))


@pytest.mark.parametrize("temp", TEMPERATURES)
class TestEqualsPerPointLoop:
    def test_inverter_vtc(self, analysis, temp):
        vin, vout = inverter_vtc(analysis.nfet, analysis.pfet, temp,
                                 n_points=17)
        vin_o, vout_o = oracle_inverter_vtc(analysis.nfet, analysis.pfet,
                                            temp, n_points=17)
        assert np.array_equal(vin, vin_o)
        assert np.array_equal(vout, vout_o)

    def test_hold_snm_mismatched(self, analysis, temp):
        skewed = analysis.nfet.copy(VTH0=analysis.nfet.VTH0 + 0.04)
        args = (skewed, analysis.pfet, analysis.nfet, analysis.pfet, temp)
        assert hold_snm(*args, n_points=15) == oracle_hold_snm(
            *args, n_points=15)

    def test_nominal_snm(self, analysis, temp):
        assert analysis.nominal_snm(temp, n_points=15) == oracle_hold_snm(
            analysis.nfet, analysis.pfet, analysis.nfet, analysis.pfet,
            temp, analysis.vdd, 15)

    def test_monte_carlo(self, analysis, temp):
        mc = analysis.monte_carlo(temp, n_cells=4, seed=7, n_points=13)
        assert mc.shape == (4,)
        assert np.array_equal(
            mc, oracle_monte_carlo(analysis, temp, n_cells=4, seed=7,
                                   n_points=13))


class TestDegenerateSizes:
    @pytest.mark.parametrize("n_points", [1, 0, -3])
    def test_vtc_needs_two_points(self, analysis, n_points):
        with pytest.raises(ConfigError) as err:
            inverter_vtc(analysis.nfet, analysis.pfet, 300.0,
                         n_points=n_points)
        assert err.value.field == "n_points"

    @pytest.mark.parametrize("n_points", [1, 0])
    def test_snm_needs_two_points(self, analysis, n_points):
        with pytest.raises(ConfigError) as err:
            analysis.nominal_snm(300.0, n_points=n_points)
        assert err.value.field == "n_points"
        with pytest.raises(ConfigError) as err:
            hold_snm(analysis.nfet, analysis.pfet, analysis.nfet,
                     analysis.pfet, 300.0, n_points=n_points)
        assert err.value.field == "n_points"

    def test_monte_carlo_needs_two_points(self, analysis):
        with pytest.raises(ConfigError) as err:
            analysis.monte_carlo(300.0, n_cells=2, n_points=1)
        assert err.value.field == "n_points"

    @pytest.mark.parametrize("n_cells", [0, -1])
    def test_monte_carlo_needs_a_cell(self, analysis, n_cells):
        with pytest.raises(ConfigError) as err:
            analysis.monte_carlo(300.0, n_cells=n_cells)
        assert err.value.field == "n_cells"
