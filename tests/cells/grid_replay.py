"""Point-by-point replay of a batched arc plan: the batched path's oracle.

Shared by ``tests/cells/test_batched_grid.py`` and
``benchmarks/test_bench_cells_grid.py``.
"""

from __future__ import annotations

import numpy as np

from repro.cells import CellCharacterizer
from repro.spice import propagation_delay, transient


def replay_tables(
    ch: CellCharacterizer, cell, pin: str, own_grid: bool,
    notes: list[str] | None = None,
) -> dict[str, np.ndarray]:
    """Solve every planned point of an arc alone (G = 1); fill its tables.

    ``own_grid=True`` runs each point on its own time grid through the
    characterizer's per-point retry ladder (``_solve_point_resilient``,
    analytic estimate on failure) -- the per-point path batching
    replaces.  ``own_grid=False`` runs each point with a plain
    ``transient`` on its batch's union grid, which the batched path must
    reproduce to floating-point noise.
    """
    cfg = ch.config
    notes = [] if notes is None else notes
    shape = (len(cfg.slew_index), len(cfg.load_index))
    tables = {
        key: np.zeros(shape)
        for key in ("cell_rise", "cell_fall", "rise_transition",
                    "fall_transition")
    }
    record = [pin, cell.output]
    for batch in ch.plan_grid_batches(cell, pin):
        for p in batch.points:
            circuit = ch.build_cell_circuit(cell, p.load, p.wave_map)
            if own_grid:
                res = ch._solve_point_resilient(cell, pin, circuit,
                                                p.t_stop, p.dt, notes)
            else:
                res = transient(circuit, batch.t_stop, batch.dt,
                                record=record)
            if res is None:
                d, sl = p.est_d, p.est_s
            else:
                win = res.waveform(pin)
                wout = res.waveform(cell.output)
                d = propagation_delay(win, wout, cfg.vdd, p.in_tr, p.out_tr)
                sl = wout.transition_time(0.0, cfg.vdd, direction=p.out_tr)
            if d > tables[f"cell_{p.out_tr}"][p.i, p.j]:
                tables[f"cell_{p.out_tr}"][p.i, p.j] = d
                tables[f"{p.out_tr}_transition"][p.i, p.j] = sl
    return tables
