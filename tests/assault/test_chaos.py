"""The chaos injectors: damage is applied, surgical, and reverted."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.provenance import RunLedger, RunRecord
from repro.runtime import ResultCache
from repro.runtime.cache import CACHE_VERSION
from tests.assault.chaos import ChaosMonkey


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", namespace="chaos")


@pytest.fixture
def ledger(tmp_path):
    led = RunLedger(tmp_path / "runs")
    for i in range(3):
        led.append(RunRecord(experiment=f"probe_{i}", kind="experiment",
                             metrics={"i": float(i)}))
    return led


class TestCacheChaos:
    def test_truncation_applies_and_reverts(self, cache):
        cache.put("k", {"v": 1})
        original = cache.path("k").read_bytes()
        with ChaosMonkey(seed=7).truncated_cache_entry(cache, "k") as path:
            assert len(path.read_bytes()) < len(original)
            assert cache.get("k", None) is None
        assert cache.path("k").read_bytes() == original
        assert cache.get("k", None) == {"v": 1}

    def test_bitflip_changes_exactly_one_bit(self, cache):
        cache.put("k", list(range(100)))
        original = cache.path("k").read_bytes()
        with ChaosMonkey(seed=7).bitflipped_cache_entry(cache, "k") as path:
            damaged = path.read_bytes()
            assert len(damaged) == len(original)
            diff = [(a ^ b) for a, b in zip(original, damaged)]
            flipped = [d for d in diff if d]
            assert len(flipped) == 1
            assert bin(flipped[0]).count("1") == 1
        assert cache.get("k", None) == list(range(100))

    def test_stale_version_plants_previous_format(self, cache):
        with ChaosMonkey().stale_version_entry(cache, "k", "POISON") as p:
            assert p.name == f"k.v{CACHE_VERSION - 1}.pkl"
            assert pickle.loads(p.read_bytes()) == "POISON"
            assert cache.get("k", None) is None
        assert not p.exists()

    def test_seeded_damage_replays(self, cache):
        cache.put("k", list(range(50)))
        snapshots = []
        for _ in range(2):
            with ChaosMonkey(seed=99).truncated_cache_entry(
                    cache, "k") as path:
                snapshots.append(path.read_bytes())
        assert snapshots[0] == snapshots[1]


class TestLedgerChaos:
    @pytest.mark.parametrize("mode", ["garbage", "binary", "truncate",
                                      "midline"])
    def test_damage_applied_and_reverted(self, ledger, mode):
        original = ledger.path.read_bytes()
        with ChaosMonkey(seed=5).corrupted_ledger(ledger, mode=mode):
            assert ledger.path.read_bytes() != original
        assert ledger.path.read_bytes() == original
        assert len(ledger.records()) == 3

    def test_unknown_mode_is_typed(self, ledger):
        with pytest.raises(ConfigError, match="corruption mode"):
            with ChaosMonkey().corrupted_ledger(ledger, mode="evil"):
                pass  # pragma: no cover

    def test_midline_keeps_line_count(self, ledger):
        original_lines = ledger.path.read_bytes().splitlines()
        with ChaosMonkey(seed=5).corrupted_ledger(ledger, mode="midline"):
            assert len(ledger.path.read_bytes().splitlines()) \
                == len(original_lines)


class TestSolverChaos:
    def test_hostile_solver_restores_knob(self):
        from repro.spice import solver

        saved = solver._MAX_NR_ITERATIONS
        with ChaosMonkey().hostile_solver(max_iterations=3):
            assert solver._MAX_NR_ITERATIONS == 3
        assert solver._MAX_NR_ITERATIONS == saved

    def test_hostile_solver_restores_on_error(self):
        from repro.spice import solver

        saved = solver._MAX_NR_ITERATIONS
        with pytest.raises(RuntimeError, match="boom"):
            with ChaosMonkey().hostile_solver(max_iterations=1):
                raise RuntimeError("boom")
        assert solver._MAX_NR_ITERATIONS == saved


class TestWorkerAssassin:
    def test_passthrough_in_parent(self):
        monkey = ChaosMonkey()
        assassin = monkey.worker_assassin(lambda x: x + 1, kill_items={2})
        # In the parent process the pid check passes -> real function.
        assert assassin(2) == 3

    def test_picklable(self):
        from tests.assault.test_corpus import _square

        assassin = ChaosMonkey().worker_assassin(_square, kill_items={1})
        clone = pickle.loads(pickle.dumps(assassin))
        assert clone.kill_items == frozenset({1})
        assert clone.parent_pid == assassin.parent_pid
