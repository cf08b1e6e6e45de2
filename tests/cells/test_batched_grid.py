"""Batched-grid characterization: equivalence, eviction, golden tables.

The batched path must be a pure performance transformation of the
per-point SPICE path:

* a G-replica ``MNASystem`` assembles block-for-block what each
  replica's G=1 system assembles alone (randomized circuits);
* masked convergence isolates failures -- an evicted replica never
  perturbs the survivors' solutions, and the characterizer replays an
  evicted point alone on its own grid;
* golden INV/NAND2 arc tables from the batched path pin to 1e-9 against
  the same plan replayed point-by-point on the same union time grids,
  at 300 K and 10 K.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.spice
from repro.cells import (
    CellCharacterizer,
    CharacterizationConfig,
    TechModels,
    cell_by_name,
)
from repro.device import golden_nfet, golden_pfet
from repro.errors import NetlistError
from repro.spice import (
    DC,
    PWL,
    Circuit,
    MNASystem,
    propagation_delay,
    ramp,
    transient,
    transient_grid,
)

from .grid_replay import replay_tables

VDD = 0.70


@pytest.fixture(scope="module")
def models() -> TechModels:
    return TechModels(golden_nfet(), golden_pfet())


def _characterizer(models, temp: float, **kw) -> CellCharacterizer:
    cfg = CharacterizationConfig(
        engine="spice",
        temperature_k=temp,
        slew_index=(8e-12, 32e-12),
        load_index=(1e-15, 4e-15),
        **kw,
    )
    return CellCharacterizer(models, cfg)


def _nand2_family(models, n: int, temp: float = 300.0) -> list[Circuit]:
    """NAND2 replicas with per-replica loads and input ramps."""
    ch = _characterizer(models, temp)
    cell = cell_by_name("NAND2_X1")
    circuits = []
    for r in range(n):
        wave_map = {
            "A": ramp(3e-12 + r * 1e-12, 8e-12, 0.0, VDD),
            "B": DC(VDD),
        }
        circuits.append(
            ch.build_cell_circuit(cell, (0.5 + r) * 1e-15, wave_map)
        )
    return circuits


class TestReplicatedAssembly:
    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_match_single_system_reference(self, models, seed):
        circuits = _nand2_family(models, n=5)
        rsys = MNASystem(circuits)
        g, dim = rsys.n_replicas, rsys.dim
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-0.2, VDD + 0.2, size=(g, dim))
        t = float(rng.uniform(0.0, 15e-12))
        n_caps = rsys.cap_c.shape[1]
        geq = rng.uniform(1e-6, 1e-4, size=(g, n_caps))
        ieq = rng.uniform(-1e-5, 1e-5, size=(g, n_caps))

        sv = rsys.source_values(t)
        a_g, z_g, fi_g = rsys.assemble(x, sv, cap_companion=(geq, ieq))
        z_again = rsys.rhs(sv, (geq, ieq), fi_g)
        np.testing.assert_array_equal(z_again, z_g)

        for r, circuit in enumerate(circuits):
            single = MNASystem([circuit])
            one = slice(r, r + 1)
            a_1, z_1, fi_1 = single.assemble(
                x[one], single.source_values(t),
                cap_companion=(geq[one], ieq[one]))
            n = single.n_fets
            assert np.array_equal(a_g[r], a_1[0])
            assert np.array_equal(z_g[r], z_1[0])
            assert np.array_equal(fi_g[r * n:(r + 1) * n], fi_1)

    def test_source_grid_matches_scalar_values(self, models):
        circuits = _nand2_family(models, n=3)
        rsys = MNASystem(circuits)
        times = np.linspace(0.0, 20e-12, 11)
        grid = rsys.source_grid(times)
        for k, t in enumerate(times):
            np.testing.assert_array_equal(grid[k], rsys.source_values(t))

    def test_structural_mismatch_rejected(self, models):
        circuits = _nand2_family(models, n=2)
        hot = _nand2_family(models, n=1, temp=77.0)
        with pytest.raises(NetlistError):
            MNASystem([circuits[0], hot[0]])

    def test_topology_mismatch_rejected(self, models):
        circuits = _nand2_family(models, n=2)
        circuits[1].add_resistor("r_extra", "Y", "0", 1e6)
        with pytest.raises(NetlistError):
            MNASystem(circuits)


class TestMaskedConvergence:
    def test_evicted_replica_never_corrupts_survivors(self, models):
        circuits = _nand2_family(models, n=4)
        # Replica 2's input goes non-finite mid-window: it must be
        # evicted (None) while every survivor's waveform matches its own
        # solo transient on the same grid.
        bad = PWL(times=(0.0, 10e-12, 11e-12),
                  values=(0.0, 0.5, float("nan")))
        circuits[2].sources[
            [s.name for s in circuits[2].sources].index("src_A")
        ].waveform = bad
        t_stop, dt = 40e-12, 0.5e-12
        record = ["A", "Y"]
        results = transient_grid(circuits, t_stop, dt, record=record)
        assert results[2] is None
        for r in (0, 1, 3):
            assert results[r] is not None
            solo = transient(circuits[r], t_stop, dt, record=record)
            for node in record:
                diff = np.abs(
                    results[r].voltages[node] - solo.voltages[node]
                ).max()
                assert diff < 1e-9

    def test_all_replicas_converge_without_chaos(self, models):
        circuits = _nand2_family(models, n=3)
        results = transient_grid(circuits, 30e-12, 0.5e-12, record=["Y"])
        assert all(r is not None for r in results)


class TestGridPlanner:
    def test_batches_partition_the_arc(self, models):
        ch = _characterizer(models, 300.0)
        cell = cell_by_name("NAND2_X1")
        batches = ch.plan_grid_batches(cell, "A")
        seen = set()
        for batch in batches:
            assert batch.t_stop == max(p.t_stop for p in batch.points)
            assert batch.dt == min(p.dt for p in batch.points)
            for p in batch.points:
                key = (p.i, p.j, p.in_tr)
                assert key not in seen
                seen.add(key)
        cfg = ch.config
        assert len(seen) == len(cfg.slew_index) * len(cfg.load_index) * 2

    def test_load_rows_stay_whole(self, models):
        # Merging only ever glues whole (slew, edge) rows together; a
        # row is never split across batches.
        ch = _characterizer(models, 300.0)
        cell = cell_by_name("INV_X1")
        rows: dict[tuple, list] = {}
        for batch in ch.plan_grid_batches(cell, "A"):
            for p in batch.points:
                rows.setdefault((p.i, p.in_tr), []).append(id(batch))
        for members in rows.values():
            assert len(set(members)) == 1
            assert len(members) == len(ch.config.load_index)


class TestGoldenGridTables:
    @pytest.mark.parametrize("temp", [300.0, 10.0])
    @pytest.mark.parametrize("cell_name", ["INV_X1", "NAND2_X1"])
    def test_batched_tables_pin_to_sequential_on_same_grid(
        self, models, cell_name, temp
    ):
        ch = _characterizer(models, temp)
        cell = cell_by_name(cell_name)
        pin = cell.inputs[0]
        notes: list[str] = []
        arc = ch._characterize_arc_spice(cell, pin, notes)
        assert notes == []  # no evictions, no retries on golden cells
        ref = replay_tables(ch, cell, pin, own_grid=False)
        for key in ("cell_rise", "cell_fall", "rise_transition",
                    "fall_transition"):
            got = getattr(arc, key).values
            np.testing.assert_allclose(
                got, ref[key], rtol=1e-9, atol=1e-15,
                err_msg=f"{cell_name}@{temp}K {key}",
            )

    def test_batched_tables_agree_with_per_point_replay(self, models):
        # Every point replayed alone on its own grid through the
        # per-point retry ladder agrees with the batched path to
        # characterization accuracy (different time grids, so not
        # bit-identical).
        cell = cell_by_name("INV_X1")
        pin = cell.inputs[0]
        ch = _characterizer(models, 300.0)
        arc = ch._characterize_arc_spice(cell, pin, [])
        ref = replay_tables(ch, cell, pin, own_grid=True)
        for key in ("cell_rise", "cell_fall"):
            np.testing.assert_allclose(getattr(arc, key).values, ref[key],
                                       rtol=0.05, atol=0.2e-12)


class TestEvictionReplay:
    def test_evicted_point_replays_alone_on_its_own_grid(
        self, models, monkeypatch
    ):
        ch = _characterizer(models, 300.0)
        cell = cell_by_name("INV_X1")
        pin = cell.inputs[0]
        real = repro.spice.transient_grid
        seen = {"calls": 0, "evicted": None}

        def evict_one(circuits, *args, **kwargs):
            # Replica 1 of the first multi-replica batch is evicted.
            results = real(circuits, *args, **kwargs)
            if len(circuits) > 1 and seen["evicted"] is None:
                seen["evicted"] = seen["calls"]
                results[1] = None
            seen["calls"] += 1
            return results

        monkeypatch.setattr(repro.spice, "transient_grid", evict_one)
        notes: list[str] = []
        arc = ch._characterize_arc_spice(cell, pin, notes)

        batch = ch.plan_grid_batches(cell, pin)[seen["evicted"]]
        p = batch.points[1]
        solo = transient(ch.build_cell_circuit(cell, p.load, p.wave_map),
                         p.t_stop, p.dt, record=[pin, cell.output])
        vdd = ch.config.vdd
        wout = solo.waveform(cell.output)
        delay = propagation_delay(solo.waveform(pin), wout, vdd,
                                  p.in_tr, p.out_tr)
        slew = wout.transition_time(0.0, vdd, direction=p.out_tr)
        # INV: each output edge of a (slew, load) cell comes from one
        # input edge, so the table entries are exactly the solo solve's.
        assert getattr(arc, f"cell_{p.out_tr}").values[p.i, p.j] == delay
        assert (getattr(arc, f"{p.out_tr}_transition").values[p.i, p.j]
                == slew)
        assert len(notes) == 1 and "grid eviction" in notes[0]
        assert not any("analytic fallback" in n for n in notes)
