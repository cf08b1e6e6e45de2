"""Batched DC bench: a Monte-Carlo hold-SNM population in one solve.

``SRAMCellAnalysis.monte_carlo`` solves every VTC point of every
mismatched cell (cells x 2 inverters x points replicas) as one batched
``dc_operating_point`` per temperature.  The oracle
(``tests/device/oracle.py``) is the per-point loop it replaced: one
single-circuit DC solve, with freshly built FinFETs, per input voltage.
With two FinFETs per circuit the compact model runs on tiny arrays in
the loop, so per-call overhead dominates; the batch pays it once.

Records ``bench.dc_batch_*`` entries via ``bench_record``.  Timing is
interleaved best-of-N so a background-noise spike on one run cannot fail
the assertion.
"""

from __future__ import annotations

import time

import numpy as np
from tests.device.oracle import oracle_monte_carlo

from repro.cells import TechModels
from repro.device import golden_nfet, golden_pfet
from repro.device.sram_cell import SRAMCellAnalysis

TEMPERATURE = 10.0
N_CELLS = 4
N_POINTS = 25            # 4 cells x 2 inverters x 25 points = 200 replicas
REPEATS = 3


def test_bench_dc_batch_speedup(bench_record):
    analysis = SRAMCellAnalysis.bitcell(
        TechModels(golden_nfet(), golden_pfet()))

    def batched():
        return analysis.monte_carlo(TEMPERATURE, n_cells=N_CELLS, seed=5,
                                    n_points=N_POINTS)

    def loop():
        return oracle_monte_carlo(analysis, TEMPERATURE, n_cells=N_CELLS,
                                  seed=5, n_points=N_POINTS)

    # Warm both paths (imports, allocator), then alternate each round and
    # keep the minimum per side, so shared machine noise hits both.
    batched()
    loop()
    t_loop = t_batch = float("inf")
    snm_loop = snm_batch = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        snm_loop = loop()
        t_loop = min(t_loop, time.perf_counter() - t0)
        t0 = time.perf_counter()
        snm_batch = batched()
        t_batch = min(t_batch, time.perf_counter() - t0)

    # Same answers first: the speed-up only counts if every cell's SNM
    # is bit-equal to the per-point loop's.
    assert np.array_equal(snm_batch, snm_loop)

    speedup = t_loop / t_batch
    bench_record("dc_batch.loop_s", t_loop)
    bench_record("dc_batch.batched_s", t_batch)
    bench_record("dc_batch.speedup_x", speedup)
    print(f"\nbatched DC ({N_CELLS} cells x 2 x {N_POINTS} points at "
          f"{TEMPERATURE:g} K): loop {t_loop * 1e3:.0f} ms, batched "
          f"{t_batch * 1e3:.0f} ms ({speedup:.1f}x)")
    assert speedup >= 5.0, (
        f"the batched Monte Carlo must be >=5x faster than the per-point "
        f"loop, got {speedup:.2f}x (loop {t_loop:.3f} s, batched "
        f"{t_batch:.3f} s)")
