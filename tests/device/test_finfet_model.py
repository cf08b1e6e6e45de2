"""Unit and property tests for the FinFET compact model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import FinFET, default_nfet, default_pfet, golden_nfet, golden_pfet
from repro.device.constants import VDD
from repro.device.finfet import normalized_charge
from repro.device.thermal import effective_thermal_voltage, subthreshold_slope_factor
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def nfet() -> FinFET:
    return FinFET(golden_nfet())


@pytest.fixture(scope="module")
def pfet() -> FinFET:
    return FinFET(golden_pfet())


class TestNormalizedCharge:
    def test_identity_at_zero(self):
        q = normalized_charge(np.array([0.0]))[0]
        assert abs(2 * q + np.log(q)) < 1e-10

    @given(st.floats(min_value=-80.0, max_value=2000.0))
    @settings(max_examples=200, deadline=None)
    def test_solves_defining_equation(self, u: float):
        q = float(normalized_charge(np.array([u]))[0])
        assert q > 0
        assert abs(2 * q + np.log(q) - u) < 1e-6 * max(1.0, abs(u))

    @given(
        st.floats(min_value=-50.0, max_value=1000.0),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing(self, u: float, du: float):
        lo, hi = normalized_charge(np.array([u, u + du]))
        assert hi > lo

    def test_weak_inversion_is_exponential(self):
        # For u << 0, q ~ exp(u)/2: one unit of u is one factor of e.
        q1, q2 = normalized_charge(np.array([-30.0, -29.0]))
        assert q2 / q1 == pytest.approx(np.e, rel=1e-6)

    def test_strong_inversion_is_linear(self):
        # For u >> 1, q ~ u/2.
        q = float(normalized_charge(np.array([1000.0]))[0])
        assert q == pytest.approx(500.0, rel=0.02)


class TestPolarityAndSigns:
    def test_nfet_forward_current_positive(self, nfet):
        assert float(nfet.ids(VDD, VDD, 300.0)) > 0

    def test_pfet_forward_current_negative(self, pfet):
        assert float(pfet.ids(-VDD, -VDD, 300.0)) < 0

    def test_zero_vds_zero_current(self, nfet):
        assert float(nfet.ids(VDD, 0.0, 300.0)) == pytest.approx(0.0, abs=1e-15)

    def test_source_drain_exchange_antisymmetry(self, nfet):
        # Physical symmetry: reversing vds exchanges source and drain.
        fwd = float(nfet.ids(0.5, 0.3, 300.0))
        # Swap terminals: the old drain becomes the source, so the gate sits
        # at 0.5 - 0.3 = 0.2 above the new source and vds flips sign.
        rev = float(nfet.ids(0.2, -0.3, 300.0))
        assert rev == pytest.approx(-fwd, rel=1e-9)

    def test_broadcasting_grid(self, nfet):
        vgs = np.linspace(0, VDD, 5)[:, None]
        vds = np.linspace(0.05, VDD, 4)[None, :]
        ids = nfet.ids(vgs, vds, 300.0)
        assert ids.shape == (5, 4)
        assert np.all(ids > 0)


class TestMonotonicity:
    def test_increasing_in_vgs(self, nfet):
        vgs = np.linspace(0.0, VDD, 40)
        ids = nfet.ids(vgs, VDD, 300.0)
        assert np.all(np.diff(ids) > 0)

    def test_increasing_in_vds(self, nfet):
        vds = np.linspace(0.0, VDD, 40)
        ids = nfet.ids(VDD, vds, 300.0)
        assert np.all(np.diff(ids) >= 0)

    @pytest.mark.parametrize("temperature", [300.0, 77.0, 10.0, 4.0])
    def test_monotone_at_all_temperatures(self, nfet, temperature):
        vgs = np.linspace(0.0, VDD, 30)
        ids = nfet.ids(vgs, 0.75, temperature)
        assert np.all(np.diff(ids) > 0)

    def test_nfin_multiplies_current(self):
        one = FinFET(golden_nfet(nfin=1))
        three = FinFET(golden_nfet(nfin=3))
        i1 = float(one.ids(VDD, VDD, 300.0))
        i3 = float(three.ids(VDD, VDD, 300.0))
        # Series resistance scales with 1/nfin too, so the ratio is exact.
        assert i3 == pytest.approx(3.0 * i1, rel=1e-6)


class TestSubthresholdPhysics:
    def test_room_temperature_swing_near_70mv(self, nfet):
        vgs = np.linspace(0.02, 0.12, 30)
        ids = nfet.ids(vgs, 0.05, 300.0)
        slope = np.polyfit(vgs, np.log10(ids), 1)[0]
        swing = 1.0 / slope
        nslope = float(subthreshold_slope_factor(0.05, nfet.params))
        expected = nslope * effective_thermal_voltage(300.0, nfet.params) * np.log(10)
        assert swing == pytest.approx(expected, rel=0.05)
        assert 0.060 < swing < 0.085

    def test_cryo_swing_saturates_above_boltzmann(self, nfet):
        # At 10 K the Boltzmann limit would be ~2 mV/dec; band tails keep
        # the model near ~10 mV/dec (paper refs [27]-[28]).
        vgs = np.linspace(0.20, 0.24, 20)
        ids = nfet.ids(vgs, 0.05, 10.0)
        swing = 1.0 / np.polyfit(vgs, np.log10(ids), 1)[0]
        boltzmann = 1.2 * 8.617e-5 * 10.0 * np.log(10)
        assert swing > 2.0 * boltzmann
        assert swing < 0.020

    def test_ioff_collapse_at_cryo(self, nfet):
        ioff_300 = nfet.ioff(300.0)
        ioff_10 = nfet.ioff(10.0)
        assert ioff_300 / ioff_10 > 100.0

    def test_tunneling_floor_bounds_collapse(self, nfet):
        # Without the floor the 10 K OFF current would be ~1e-40 A; the
        # source-drain tunneling floor keeps it measurable (paper ref [29]).
        assert nfet.ioff(10.0) > 1e-13

    def test_ion_only_slightly_affected(self, nfet, pfet):
        for dev in (nfet, pfet):
            ratio = dev.ion(10.0) / dev.ion(300.0)
            assert 0.85 < ratio < 1.20


class TestCryoHeadlineNumbers:
    """The golden device reproduces the paper's measured shifts."""

    def test_nfet_vth_rise_about_47_percent(self, nfet):
        from repro.device.metrics import extract_figures

        figs = {}
        for t in (300.0, 10.0):
            vg, i = nfet.transfer_curve(0.75, t, n_points=201)
            figs[t] = extract_figures(vg, i, t)
        rise = figs[10.0].vth / figs[300.0].vth - 1.0
        assert 0.37 <= rise <= 0.60

    def test_pfet_vth_rise_about_39_percent(self, pfet):
        from repro.device.metrics import extract_figures

        figs = {}
        for t in (300.0, 10.0):
            vg, i = pfet.transfer_curve(-0.75, t, n_points=201)
            figs[t] = extract_figures(vg, i, t)
        rise = figs[10.0].vth / figs[300.0].vth - 1.0
        assert 0.30 <= rise <= 0.52

    def test_effective_current_slightly_lower_at_cryo(self, nfet, pfet):
        # Drives the Table-1 slowdown: cells get a few percent slower.
        for dev in (nfet, pfet):
            ratio = dev.effective_current(10.0) / dev.effective_current(300.0)
            assert 0.85 < ratio < 1.01


class TestSmallSignalAndCaps:
    def test_gm_positive_in_on_state(self, nfet):
        assert nfet.gm(0.5, 0.5, 300.0) > 0

    def test_gds_positive_in_saturation(self, nfet):
        assert nfet.gds(0.7, 0.6, 300.0) > 0

    def test_gate_capacitance_scales_with_fins(self):
        c1 = FinFET(golden_nfet(nfin=1)).gate_capacitance()
        c4 = FinFET(golden_nfet(nfin=4)).gate_capacitance()
        assert c4 == pytest.approx(4 * c1)
        assert 1e-17 < c1 < 1e-15  # ~0.1 fF per fin

    def test_pfet_gm_sign_convention(self, pfet):
        # dIds/dVgs for a p-device in conduction: current more negative as
        # vgs decreases => positive slope w.r.t. vgs.
        assert pfet.gm(-0.5, -0.5, 300.0) > 0


class TestParameterValidation:
    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            default_nfet().copy(polarity="x")

    def test_bad_nfin_rejected(self):
        with pytest.raises(ValueError, match="nfin"):
            default_nfet().copy(nfin=0)

    @pytest.mark.parametrize("name", ["VTH0", "T0", "lgate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ConfigError) as err:
            default_pfet().copy(**{name: value})
        assert err.value.field == name

    def test_polarity_sign(self):
        assert default_nfet().sign == 1.0
        assert default_pfet().sign == -1.0

    def test_copy_does_not_mutate_original(self):
        p = default_pfet()
        q = p.copy(VTH0=0.3)
        assert p.VTH0 != 0.3
        assert q.VTH0 == 0.3
