"""Equivalence of the MNA engine against the test-side oracle.

The engine (compiled scatter stamps, masked modified Newton) must be a
pure performance transformation of the plain per-element algorithm in
``tests/spice/oracle.py``: same stamps, same linearization, same
accepted solutions.  Layers of checks:

* assembly equivalence on randomized circuits (resistors, capacitors,
  sources, n/p FinFETs, ground aliases): A and z agree to summation-order
  tolerance, and the frozen-companion RHS rebuilds z exactly;
* golden DC/transient regression: INV and NAND2 solves at 300 K and 10 K
  agree with the oracle's full-Newton solves to 1e-9, and the stacked
  device evaluator matches per-device scalar evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import lambertw

from repro.device.finfet import FinFET, _lambertw0, stack_models
from repro.device.params import default_nfet, default_pfet
from repro.spice.mna import MNASystem
from repro.spice.netlist import Circuit
from repro.spice.solver import dc_operating_point, transient
from repro.spice.sources import DC, ramp

from .oracle import assemble_reference, dc_reference, transient_reference

VDD = 0.8


def _rand_circuit(seed: int, temp: float = 300.0) -> Circuit:
    """Randomized mixed circuit exercising every stamp type."""
    rng = np.random.default_rng(seed)
    grounds = ("0", "gnd", "vss")
    c = Circuit(title=f"rand{seed}", temperature_k=temp)
    nmod = FinFET(default_nfet(int(rng.integers(1, 4))))
    pmod = FinFET(default_pfet(int(rng.integers(1, 4))))
    c.add_vsource("vdd", "vdd", str(rng.choice(grounds)), DC(VDD))
    c.add_vsource("vin", "in", str(rng.choice(grounds)), DC(float(rng.uniform(0, VDD))))
    nodes = ["in", "vdd", "a", "b", "c"]
    for i in range(int(rng.integers(2, 5))):
        n1, n2 = rng.choice(nodes, 2, replace=False)
        c.add_resistor(f"r{i}", str(n1), str(n2), float(rng.uniform(1e3, 1e6)))
    for i in range(int(rng.integers(2, 6))):
        n1 = str(rng.choice(nodes))
        n2 = str(rng.choice(list(grounds) + nodes))
        if n1 == n2:
            n2 = "0"
        c.add_capacitor(f"c{i}", n1, n2, float(rng.uniform(0.1e-15, 5e-15)))
    for i in range(int(rng.integers(1, 4))):
        d, g = rng.choice(["a", "b", "c"], 2, replace=False)
        c.add_finfet(f"mn{i}", str(d), str(g), str(rng.choice(grounds)), nmod)
        c.add_finfet(f"mp{i}", str(d), str(g), "vdd", pmod)
    return c


def _inv(temp: float) -> Circuit:
    c = Circuit(title="inv", temperature_k=temp)
    nmod = FinFET(default_nfet(2))
    pmod = FinFET(default_pfet(3))
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("vin", "in", "0", ramp(20e-12, 20e-12, 0.0, VDD))
    c.add_finfet("mp", "out", "in", "vdd", pmod)
    c.add_finfet("mn", "out", "in", "0", nmod)
    c.add_capacitor("cl", "out", "0", 2e-15)
    return c


def _nand2(temp: float) -> Circuit:
    c = Circuit(title="nand2", temperature_k=temp)
    nmod = FinFET(default_nfet(2))
    pmod = FinFET(default_pfet(2))
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("va", "a", "0", ramp(20e-12, 20e-12, 0.0, VDD))
    c.add_vsource("vb", "b", "0", DC(VDD))
    c.add_finfet("mpa", "out", "a", "vdd", pmod)
    c.add_finfet("mpb", "out", "b", "vdd", pmod)
    c.add_finfet("mna", "out", "a", "mid", nmod)
    c.add_finfet("mnb", "mid", "b", "0", nmod)
    c.add_capacitor("cl", "out", "0", 2e-15)
    return c


def _batch_of_one(comp):
    """A per-capacitor (geq, ieq) pair as the engine's (G=1, n_caps)."""
    return None if comp is None else (comp[0][None, :], comp[1][None, :])


class TestAssemblyEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_assembly_matches_reference(self, seed):
        circuit = _rand_circuit(seed)
        system = MNASystem([circuit])
        rng = np.random.default_rng(1000 + seed)
        for trial in range(3):
            v = rng.uniform(-VDD, VDD, system.dim)
            n_caps = len(circuit.capacitors)
            comp = (rng.uniform(1.0, 1e3, n_caps),
                    rng.uniform(-1e-3, 1e-3, n_caps)) if trial else None
            a_c, z_c, _ = system.assemble(
                v[None, :], system.source_values(0.0), gmin=1e-10,
                cap_companion=_batch_of_one(comp), source_scale=0.7)
            a_r, z_r = assemble_reference(circuit, v, 0.0, gmin=1e-10,
                                          cap_companion=comp,
                                          source_scale=0.7)
            scale = np.abs(a_r).max()
            assert np.abs(a_c[0] - a_r).max() <= 1e-12 * scale
            zscale = max(np.abs(z_r).max(), 1e-12)
            assert np.abs(z_c[0] - z_r).max() <= 1e-12 * zscale

    def test_rhs_matches_assembled_z(self):
        circuit = _rand_circuit(3)
        system = MNASystem([circuit])
        rng = np.random.default_rng(99)
        v = rng.uniform(0.0, VDD, (1, system.dim))
        n_caps = len(circuit.capacitors)
        comp = _batch_of_one((rng.uniform(1.0, 1e3, n_caps),
                              rng.uniform(-1e-3, 1e-3, n_caps)))
        sources = system.source_values(0.0)
        _, z, fet_ieq = system.assemble(
            v, sources, cap_companion=comp, source_scale=0.9)
        z_again = system.rhs(sources, comp, fet_ieq, source_scale=0.9)
        np.testing.assert_allclose(z_again, z, rtol=0, atol=1e-18)


class TestGoldenRegression:
    """Engine solves pin to the oracle's full-Newton solves within 1e-9."""

    @pytest.mark.parametrize("temp", [300.0, 10.0])
    @pytest.mark.parametrize("make", [_inv, _nand2])
    def test_dc_matches_reference(self, make, temp):
        circuit = make(temp)
        op = dc_operating_point(circuit)
        volts, currents = dc_reference(circuit)
        for node, val in volts.items():
            assert abs(op.voltages[node] - val) < 1e-9
        for name, val in currents.items():
            assert abs(op.source_currents[name] - val) < 1e-9

    @pytest.mark.parametrize("temp", [300.0, 10.0])
    @pytest.mark.parametrize("make", [_inv, _nand2])
    def test_transient_matches_reference(self, make, temp):
        circuit = make(temp)
        tr = transient(circuit, 60e-12, 1e-12)
        volts, currents = transient_reference(circuit, 60e-12, 1e-12)
        for node, wave in volts.items():
            assert np.abs(tr.voltages[node] - wave).max() < 1e-9
        for name, wave in currents.items():
            assert np.abs(tr.source_currents[name] - wave).max() < 1e-9

    def test_jacobian_reuse_stats(self):
        tr = transient(_inv(300.0), 60e-12, 1e-12)
        # Every timestep after the first bypasses on the cached Jacobian
        # (the first transient step cannot: the DC solve cached a
        # different companion key).
        assert tr.stats.jacobian_reuses >= tr.stats.timesteps - 1


class TestStackedEvaluator:
    def test_stacked_matches_per_device(self):
        nmod = FinFET(default_nfet(2))
        pmod = FinFET(default_pfet(3))
        stack = stack_models([nmod, pmod], [3, 2])
        rng = np.random.default_rng(7)
        vgs = np.concatenate([rng.uniform(0, VDD, 3), rng.uniform(-VDD, 0, 2)])
        vds = np.concatenate([rng.uniform(0, VDD, 3), rng.uniform(-VDD, 0, 2)])
        for temp in (300.0, 10.0):
            got = stack.ids(vgs, vds, temp)
            want = np.concatenate([
                np.atleast_1d(nmod.ids(vgs[:3], vds[:3], temp)),
                np.atleast_1d(pmod.ids(vgs[3:], vds[3:], temp)),
            ])
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_tiled_stack_layout(self):
        nmod = FinFET(default_nfet(1))
        pmod = FinFET(default_pfet(1))
        stack3 = stack_models([nmod, pmod], [1, 1], tile=3)
        vgs = np.array([0.5, -0.5] * 3)
        vds = np.array([0.4, -0.4] * 3)
        got = stack3.ids(vgs, vds, 300.0)
        n_i = float(nmod.ids(0.5, 0.4, 300.0))
        p_i = float(pmod.ids(-0.5, -0.4, 300.0))
        np.testing.assert_allclose(got, [n_i, p_i] * 3, rtol=1e-12)


class TestLambertW:
    def test_matches_scipy_across_range(self):
        x = np.concatenate([
            np.array([0.0, 1e-300, 1e-30, 1e-10]),
            np.logspace(-8.0, 8.0, 500),
            np.exp(np.linspace(20.0, 500.0, 100)) * 2.0,
        ])
        ref = np.real(lambertw(x))
        got = _lambertw0(x)
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
        assert rel.max() < 1e-13
