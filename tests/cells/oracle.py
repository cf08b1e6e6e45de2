"""Test oracle for the analytic characterizer: the per-point stage walk.

The engine in :mod:`repro.cells.characterize` evaluates each arc's
worst-path pass over the stage DAG once per input edge, on the whole
slew x load mesh, and assembles the tables through ``_finish_arc`` like
a SPICE arc.  This module is the slow, obviously-correct counterpart it
is pinned against: every (slew, load, edge) point re-walks the cell's
stages with scalar inputs, a candidate replaces the stored one only when
its arrival is strictly later, and the arc keeps its own sense rule,
zero-fill and table construction.  The grid planner here asks the walk
for each point's estimate one at a time.  Stage helpers (resistance,
loads, delay/slew) are the characterizer's own.

Used by ``tests/cells/test_analytic_equivalence.py`` (``==`` on every
table of every combinational arc, at 300 K and 10 K).
"""

from __future__ import annotations

import numpy as np

from repro.cells.characterize import CellCharacterizer, GridBatch, GridPoint
from repro.cells.nldm import NLDMTable, TimingArc

__all__ = ["arc_timing", "characterize_arc", "plan_grid_batches"]


def arc_timing(
    ch: CellCharacterizer, cell, pin: str, input_transition: str,
    slew_in: float, load: float,
) -> dict[str, tuple[float, float]]:
    """Worst (arrival, slew) per output transition for one input edge at
    one (slew, load) point."""
    # state: (signal, transition) -> (arrival, slew)
    state: dict[tuple[str, str], tuple[float, float]] = {
        (pin, input_transition): (0.0, slew_in)
    }
    for stage in cell.sized_stages:
        stage_load = ch._stage_output_load(cell, stage, load)
        for signal in stage.pdn.inputs():
            for tr in ("rise", "fall"):
                if (signal, tr) not in state:
                    continue
                arrival, slew = state[(signal, tr)]
                out_tr = "fall" if tr == "rise" else "rise"
                d, s = ch._stage_delay_slew(stage, out_tr, slew, stage_load)
                cand = (arrival + d, s)
                key = (stage.output, out_tr)
                if key not in state or cand[0] > state[key][0]:
                    state[key] = cand
    out: dict[str, tuple[float, float]] = {}
    for tr in ("rise", "fall"):
        if (cell.output, tr) in state:
            out[tr] = state[(cell.output, tr)]
    return out


def characterize_arc(ch: CellCharacterizer, cell, pin: str) -> TimingArc:
    """One arc's tables, walking the grid point by point."""
    slews = ch.config.slew_index
    loads = ch.config.load_index

    shape = (len(slews), len(loads))
    tables = {
        key: np.zeros(shape)
        for key in ("cell_rise", "cell_fall", "rise_transition",
                    "fall_transition")
    }
    reach_rise_from = set()
    reach_fall_from = set()
    for i, s in enumerate(slews):
        for j, c in enumerate(loads):
            for in_tr in ("rise", "fall"):
                result = arc_timing(ch, cell, pin, in_tr, s, c)
                for out_tr, (delay, out_slew) in result.items():
                    dkey = f"cell_{out_tr}"
                    skey = f"{out_tr}_transition"
                    if delay > tables[dkey][i, j]:
                        tables[dkey][i, j] = delay
                        tables[skey][i, j] = out_slew
                    if out_tr == "rise":
                        reach_rise_from.add(in_tr)
                    else:
                        reach_fall_from.add(in_tr)

    if reach_rise_from == {"fall"} and reach_fall_from == {"rise"}:
        sense = "negative_unate"
    elif reach_rise_from == {"rise"} and reach_fall_from == {"fall"}:
        sense = "positive_unate"
    else:
        sense = "non_unate"

    # A transition that never occurs keeps zeros; fill it with the
    # other polarity so downstream lookups stay sane.
    for a, b in (("cell_rise", "cell_fall"),
                 ("rise_transition", "fall_transition")):
        if not tables[a].any():
            tables[a] = tables[b].copy()
        if not tables[b].any():
            tables[b] = tables[a].copy()

    def mk(key: str) -> NLDMTable:
        return NLDMTable(np.asarray(slews), np.asarray(loads), tables[key])

    return TimingArc(
        related_pin=pin,
        sense=sense,
        cell_rise=mk("cell_rise"),
        cell_fall=mk("cell_fall"),
        rise_transition=mk("rise_transition"),
        fall_transition=mk("fall_transition"),
    )


def plan_grid_batches(
    ch: CellCharacterizer, cell, pin: str,
    side: dict[str, bool] | None = None,
) -> list[GridBatch]:
    """The batched-grid plan with one scalar walk per point's estimate."""
    from repro.spice import DC, ramp

    cfg = ch.config
    if side is None:
        side = ch._sensitize(cell, pin)
        if side is None:
            raise ValueError(f"{cell.name}: pin {pin!r} cannot toggle output")
    fn = cell.function()

    rows: list[GridBatch] = []
    for i, s in enumerate(cfg.slew_index):
        for in_tr in ("rise", "fall"):
            v0 = 0.0 if in_tr == "rise" else cfg.vdd
            v1 = cfg.vdd - v0
            out0 = fn.evaluate({**side, pin: v0 > cfg.vdd / 2})
            out1 = fn.evaluate({**side, pin: v1 > cfg.vdd / 2})
            out_tr = "rise" if (out1 and not out0) else "fall"
            t_start = 3e-12 + 2 * s
            ramp_dur = s / 0.8
            points = []
            for j, c in enumerate(cfg.load_index):
                est = arc_timing(ch, cell, pin, in_tr, s, c)
                est_d, est_s = est.get(out_tr, (20e-12, 20e-12))
                t_stop = (t_start + ramp_dur + 4 * est_d + 4 * est_s
                          + 20e-12)
                dt = max(min(s / 30.0, est_s / 20.0, 0.5e-12), 0.02e-12)
                wave_map: dict[str, object] = {
                    p: DC(cfg.vdd if val else 0.0) for p, val in side.items()
                }
                wave_map[pin] = ramp(t_start, ramp_dur, v0, v1)
                points.append(GridPoint(
                    i=i, j=j, in_tr=in_tr, out_tr=out_tr, slew=s, load=c,
                    est_d=est_d, est_s=est_s, t_stop=t_stop, dt=dt,
                    wave_map=wave_map,
                ))
            rows.append(GridBatch(
                points=tuple(points),
                t_stop=max(p.t_stop for p in points),
                dt=min(p.dt for p in points),
            ))

    rows.sort(key=lambda r: (r.dt, r.t_stop))
    batches: list[GridBatch] = []
    for row in rows:
        if batches:
            merged = batches[-1].merged(row)
            if merged.cost() <= batches[-1].cost() + row.cost():
                batches[-1] = merged
                continue
        batches.append(row)
    return batches
