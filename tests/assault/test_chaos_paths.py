"""Chaos paths end-to-end: typed errors, degradation, and telemetry.

These are the regression tests the scenario corpus generalizes:
each drives one chaos injection through the *real* stack and asserts
both halves of the contract -- the degraded behavior (miss / typed
error / recovery, never garbage or a raw traceback) and the telemetry
counter that makes the degradation observable.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.errors import SolverBudgetError
from repro.provenance import RunLedger, RunRecord
from repro.runtime import ResultCache, get_executor
from tests.assault.chaos import ChaosMonkey


@pytest.fixture(autouse=True)
def _metrics():
    telemetry.reset()
    telemetry.enable()
    yield
    telemetry.reset()


def _counter(name: str) -> int:
    return int(telemetry.metrics_summary().get(name, 0))


class TestCacheChaosPaths:
    def test_truncated_entry_misses_and_counts(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="t")
        cache.put("k", {"v": 1})
        with ChaosMonkey(seed=3).truncated_cache_entry(cache, "k"):
            assert cache.get("k", "MISS") == "MISS"
            assert "k" not in cache
        assert _counter("runtime.cache_corrupt.t") >= 1

    def test_garbage_entry_misses_and_counts(self, tmp_path):
        cache = ResultCache(tmp_path, namespace="g")
        cache.put("k", {"v": 1})
        cache.path("k").write_bytes(b"\x00garbage\xff" * 7)
        assert cache.get("k", "MISS") == "MISS"
        assert "k" not in cache
        assert _counter("runtime.cache_corrupt.g") >= 1
        # The corrupt file was dropped; a rewrite fully recovers.
        cache.put("k", {"v": 2})
        assert cache.get("k", None) == {"v": 2}


class TestLedgerChaosPaths:
    def test_midfile_corruption_loses_one_record(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for i in range(5):
            ledger.append(RunRecord(experiment=f"e{i}", kind="experiment"))
        with ChaosMonkey(seed=3).corrupted_ledger(ledger, mode="midline"):
            survivors = ledger.records()
            assert len(survivors) == 4
        assert len(ledger.records()) == 5

    def test_binary_junk_never_raises(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(RunRecord(experiment="e", kind="experiment"))
        with ChaosMonkey(seed=3).corrupted_ledger(ledger, mode="binary"):
            assert len(ledger.records()) == 1


class TestExecutorChaosPaths:
    def test_worker_death_mid_map_recovers(self, tmp_path):
        from tests.assault.test_corpus import _square

        assassin = ChaosMonkey().worker_assassin(_square,
                                                 kill_items={2, 5})
        results = get_executor(2, "process").map(assassin, range(8))
        assert results == [_square(i) for i in range(8)]
        assert _counter("runtime.chunk_failures") >= 1


class TestSolverChaosPaths:
    def test_budget_exhaustion_is_typed(self):
        from tests.assault.test_corpus import _inverter
        from repro.spice import dc_operating_point
        from repro.spice.solver import SolverBudget

        with pytest.raises(SolverBudgetError):
            dc_operating_point(_inverter(),
                               budget=SolverBudget(max_iterations=1))

    def test_forced_nonconvergence_is_typed(self):
        from tests.assault.test_corpus import _inverter
        from repro.spice import dc_operating_point
        from repro.spice.solver import ConvergenceError

        with ChaosMonkey().hostile_solver(max_iterations=1):
            with pytest.raises(ConvergenceError):
                dc_operating_point(_inverter())
