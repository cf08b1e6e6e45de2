"""SPICE kernel bench: the engine vs. the test oracle on a loaded chain.

The oracle (``tests/spice/oracle.py``) stamps every element in a Python
loop, calls the compact model once per model group, and assembles and
solves afresh every Newton iteration.  The engine's win comes from three
compounding changes -- one stacked compact-model call per Newton
iteration, precompiled scatter stamping, and the frozen-companion bypass
that makes each timestep's first iteration free of model evaluations.
The oracle's cost grows with element count (Python stamping loops), so
a realistic parasitic-heavy netlist is where the ratio is honest.

Records ``bench.spice_kernel_*`` entries via ``bench_record`` so the
summary (and, through the provenance ledger, ``repro compare``) tracks
the kernel speedup over time.  Timing is interleaved best-of-N so a
background-noise spike on one run cannot fail the assertion.
"""

from __future__ import annotations

import time

import numpy as np
from tests.spice.oracle import transient_reference

from repro.device.finfet import FinFET
from repro.device.params import default_nfet, default_pfet
from repro.spice.netlist import Circuit
from repro.spice.solver import transient
from repro.spice.sources import DC, ramp

VDD = 0.8
N_STAGES = 20           # 40 FinFETs, 180 caps incl. device parasitics
T_STOP = 250e-12
DT = 0.5e-12            # 500 timesteps
REPEATS = 3


def _loaded_chain(n_stages: int, temp: float = 300.0) -> Circuit:
    """Inverter chain with extracted-style parasitics: wire load to
    ground, coupling to the previous stage, and a rail-overlap cap per
    net."""
    c = Circuit(title=f"chain{n_stages}", temperature_k=temp)
    nmod = FinFET(default_nfet(2))
    pmod = FinFET(default_pfet(3))
    c.add_vsource("vdd", "vdd", "0", DC(VDD))
    c.add_vsource("vin", "in", "0", ramp(50e-12, 20e-12, 0.0, VDD))
    prev = "in"
    for i in range(n_stages):
        out = f"n{i}"
        c.add_finfet(f"mp{i}", out, prev, "vdd", pmod)
        c.add_finfet(f"mn{i}", out, prev, "0", nmod)
        c.add_capacitor(f"cw{i}", out, "0", 1.5e-15)
        c.add_capacitor(f"cc{i}", out, prev, 0.4e-15)
        c.add_capacitor(f"cv{i}", out, "vdd", 0.3e-15)
        prev = out
    return c


def test_bench_spice_kernel_speedup(bench_record):
    circuit = _loaded_chain(N_STAGES)
    assert len(circuit.finfets) >= 10

    # Warm both (model caches, allocator, branch predictors).
    transient(circuit, 20e-12, DT)
    transient_reference(circuit, 20e-12, DT)

    # Interleaved best-of-N: alternate the two each round and keep the
    # minimum per side, so shared machine noise hits both equally.
    t_ref = t_cmp = float("inf")
    volts_r = tr_c = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        volts_r, _ = transient_reference(circuit, T_STOP, DT)
        t_ref = min(t_ref, time.perf_counter() - t0)
        t0 = time.perf_counter()
        tr_c = transient(circuit, T_STOP, DT)
        t_cmp = min(t_cmp, time.perf_counter() - t0)

    # Same physics first: the speedup is only meaningful if the engine
    # produced the oracle's waveforms.
    dmax = max(np.abs(tr_c.voltages[k] - volts_r[k]).max()
               for k in volts_r)
    assert dmax < 1e-9

    speedup = t_ref / t_cmp
    bench_record("spice_kernel.reference_s", t_ref)
    bench_record("spice_kernel.compiled_s", t_cmp)
    bench_record("spice_kernel.speedup_x", speedup)
    bench_record("spice_kernel.jacobian_reuses",
                 float(tr_c.stats.jacobian_reuses))
    print(f"\nSPICE kernel ({2 * N_STAGES} FETs, "
          f"{len(circuit.capacitors)} caps, {int(T_STOP / DT)} steps): "
          f"reference {t_ref * 1e3:.0f} ms, compiled {t_cmp * 1e3:.0f} ms "
          f"({speedup:.2f}x, {tr_c.stats.jacobian_reuses} Jacobian reuses)")

    assert tr_c.stats.jacobian_reuses > 0
    assert speedup >= 3.0, (
        f"the engine must be >=3x faster than the oracle on the "
        f"loaded chain, got {speedup:.2f}x "
        f"(ref {t_ref:.3f} s, compiled {t_cmp:.3f} s)")
