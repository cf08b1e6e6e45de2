"""Per-replica time grids in one ``transient_grid`` call (``==``).

``transient_grid`` takes ``t_stop``/``dt`` as scalars or one value per
circuit; every replica steps on its own snapped grid and the lockstep
runs to the longest one.  Replicas never couple, so two oracles must
hold exactly: each replica of a mixed call equals the same replica in a
separate call per grid, and its own single-circuit ``transient``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.device.finfet import FinFET
from repro.device.params import default_nfet, default_pfet
from repro.errors import ConfigError
from repro.spice import (
    DC,
    PWL,
    Circuit,
    TransientResult,
    ramp,
    transient,
    transient_grid,
)

_NMOS = FinFET(default_nfet(2))
_PMOS = FinFET(default_pfet(3))

#: Two grids: 30 ps at 0.5 ps (60 steps) and 45 ps at 0.35 ps, which
#: snaps down to 45/129 ps.
SHORT = (30e-12, 0.5e-12)
LONG = (45e-12, 0.35e-12)

#: One ramp shared by a replica of each grid: its values must come out
#: per grid, not once per waveform object.
SHARED_RAMP = ramp(6e-12, 8e-12, 0.0, 0.7)


def _inverter(load: float, vin) -> Circuit:
    c = Circuit(f"inv {load:.1e}")
    c.add_vsource("vdd", "vdd", "0", DC(0.7))
    c.add_vsource("vin", "in", "0", vin)
    c.add_finfet("mp", "out", "in", "vdd", _PMOS)
    c.add_finfet("mn", "out", "in", "0", _NMOS)
    c.add_capacitor("cl", "out", "0", load)
    return c


def _mixed() -> tuple[list[Circuit], list[tuple[float, float]]]:
    """Five inverters, interleaved over the two grids."""
    circuits = [
        _inverter(1e-15, SHARED_RAMP),
        _inverter(2e-15, SHARED_RAMP),
        _inverter(3e-15, ramp(4e-12, 12e-12, 0.7, 0.0)),
        _inverter(4e-15, ramp(5e-12, 6e-12, 0.0, 0.7)),
        _inverter(5e-15, ramp(3e-12, 10e-12, 0.7, 0.0)),
    ]
    grids = [SHORT, LONG, SHORT, LONG, LONG]
    return circuits, grids


def _assert_same(got: TransientResult, want: TransientResult) -> None:
    assert np.array_equal(got.time, want.time)
    assert got.dt_effective == want.dt_effective
    assert got.voltages.keys() == want.voltages.keys()
    for node, wave in want.voltages.items():
        assert np.array_equal(got.voltages[node], wave), node
    assert got.source_currents.keys() == want.source_currents.keys()
    for name, current in want.source_currents.items():
        assert np.array_equal(got.source_currents[name], current), name


def _per_grid(circuits, grids, **kw) -> list[TransientResult | None]:
    """The oracle: one ``transient_grid`` call per distinct grid."""
    out: list[TransientResult | None] = [None] * len(circuits)
    for grid in sorted(set(grids)):
        members = [r for r, g in enumerate(grids) if g == grid]
        results = transient_grid([circuits[r] for r in members], *grid, **kw)
        for r, res in zip(members, results):
            out[r] = res
    return out


@pytest.mark.parametrize("method", ["be", "trap"])
def test_mixed_grids_equal_per_grid_calls_and_solo_runs(method):
    circuits, grids = _mixed()
    results = transient_grid(circuits, [g[0] for g in grids],
                             [g[1] for g in grids], method=method)
    apart = _per_grid(circuits, grids, method=method)
    for r, (circuit, grid) in enumerate(zip(circuits, grids)):
        solo = transient(circuit, *grid, method=method)
        assert results[r] is not None
        _assert_same(results[r], apart[r])
        _assert_same(results[r], solo)
        assert results[r].time[-1] == grid[0]
        assert results[r].circuit_title == circuit.title
    assert len(results[0].time) == 61
    assert len(results[1].time) == 130


def test_record_subset_and_ground_alias():
    circuits, grids = _mixed()
    record = ["out", "0", "in"]
    results = transient_grid(circuits, [g[0] for g in grids],
                             [g[1] for g in grids], record=record)
    for r, (circuit, grid) in enumerate(zip(circuits, grids)):
        solo = transient(circuit, *grid, record=record)
        _assert_same(results[r], solo)
        assert not results[r].voltages["0"].any()
        assert results[r].voltages["out"].flags.c_contiguous


def test_eviction_in_short_grid_leaves_long_grid_equal():
    circuits, grids = _mixed()
    # Replica 2 (short grid) sees its input go non-finite mid-window.
    circuits[2].sources[1].waveform = PWL(
        times=(0.0, 10e-12, 11e-12), values=(0.7, 0.4, float("nan")))
    results = transient_grid(circuits, [g[0] for g in grids],
                             [g[1] for g in grids])
    apart = _per_grid(circuits, grids)
    assert results[2] is None and apart[2] is None
    for r in (0, 1, 3, 4):
        _assert_same(results[r], apart[r])
        _assert_same(results[r], transient(circuits[r], *grids[r]))
    stats = results[0].stats
    assert stats.timesteps == 129


def test_stats_report_lockstep_steps_and_smallest_step():
    circuits, grids = _mixed()
    results = transient_grid(circuits, [g[0] for g in grids],
                             [g[1] for g in grids])
    stats = results[0].stats
    assert all(res.stats is stats for res in results)
    assert stats.timesteps == 129  # the longest grid
    assert stats.dt_effective == min(res.dt_effective for res in results)
    assert stats.dt_effective == LONG[0] / 129
    # Scalars keep one grid for every replica.
    shared = transient_grid(circuits[:2], *SHORT)
    assert shared[0].stats.dt_effective == SHORT[1]
    assert shared[0].stats.timesteps == 60


@pytest.mark.parametrize("t_stop, dt", [
    ([30e-12, float("nan")], 0.5e-12),
    ([30e-12, float("inf")], 0.5e-12),
    ([30e-12, 0.0], 0.5e-12),
    (30e-12, [0.5e-12, -0.5e-12]),
    (30e-12, [0.5e-12, float("nan")]),
    (30e-12, [0.5e-12, 1e-24]),            # over the step cap
    ([30e-12, 30e-12, 30e-12], 0.5e-12),   # three values, two circuits
    (30e-12, [0.5e-12]),
    (30e-12, [[0.5e-12, 0.5e-12]]),
])
def test_bad_per_circuit_grid_is_config_error(t_stop, dt):
    circuits = [_inverter(1e-15, SHARED_RAMP), _inverter(2e-15, SHARED_RAMP)]
    with pytest.raises(ConfigError) as err:
        transient_grid(circuits, t_stop, dt)
    assert err.value.field == "dt"
