"""Batched-grid characterization bench: batched vs. per-point SPICE.

One NAND2 timing arc is characterized twice -- as a handful of
batched-grid transients (``transient_grid``, the characterizer's path)
and by replaying every planned point alone on its own grid through the
per-point retry ladder (``_solve_point_resilient``, the path batching
replaces) -- interleaved best-of-N so machine noise hits both equally.
The batched win comes from the step-count ratio: one lockstep Newton
step costs nearly the same for a whole load row (or several merged
rows) as for a single point, because the stacked compact-model call
dominates and its cost is size-independent at these widths.

The slew axis is a three-point subset spanning the default range; the
load axis is the full seven-point row (the batching dimension).  Both
wall times land in ``bench_summary.json`` via ``bench_record``.
"""

from __future__ import annotations

import time

from tests.cells.grid_replay import replay_tables

from repro.cells import (
    CellCharacterizer,
    CharacterizationConfig,
    TechModels,
    cell_by_name,
)
from repro.device import golden_nfet, golden_pfet

BENCH_SLEWS = (8e-12, 32e-12, 128e-12)
REPEATS = 3
MIN_SPEEDUP = 4.0


def test_bench_cells_grid_speedup(bench_record):
    models = TechModels(golden_nfet(), golden_pfet())
    cell = cell_by_name("NAND2_X1")
    ch = CellCharacterizer(
        models,
        CharacterizationConfig(engine="spice", slew_index=BENCH_SLEWS),
    )

    # Warm model/temperature caches with a tiny arc so neither timed
    # path pays first-touch costs.
    warm = CellCharacterizer(
        models,
        CharacterizationConfig(engine="spice", slew_index=(32e-12,),
                               load_index=(1e-15,)),
    )
    warm._characterize_arc_spice(cell, "A", [])

    t_batch = t_seq = float("inf")
    notes_batch: list[str] = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        notes_batch = []
        ch._characterize_arc_spice(cell, "A", notes_batch)
        t_batch = min(t_batch, time.perf_counter() - t0)
        t0 = time.perf_counter()
        replay_tables(ch, cell, "A", own_grid=True)
        t_seq = min(t_seq, time.perf_counter() - t0)

    speedup = t_seq / t_batch
    bench_record("cells_grid.batched_s", t_batch)
    bench_record("cells_grid.sequential_s", t_seq)
    bench_record("cells_grid.speedup_x", speedup)
    n_points = len(BENCH_SLEWS) * 7 * 2
    print(f"\nbatched-grid characterization (NAND2 arc, {n_points} "
          f"points): per-point {t_seq:.2f} s, batched {t_batch:.2f} s "
          f"({speedup:.2f}x)")

    # The batch must have solved every point itself -- a silent eviction
    # storm would shift work to the per-point ladder and fake the ratio.
    assert notes_batch == []
    assert speedup >= MIN_SPEEDUP, (
        f"batched-grid characterization must be >={MIN_SPEEDUP:.0f}x "
        f"faster than the per-point path, got {speedup:.2f}x "
        f"(per-point {t_seq:.2f} s, batched {t_batch:.2f} s)")
