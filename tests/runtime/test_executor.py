"""Executors: ordering, selection, fallback, chunk recovery."""

from __future__ import annotations

import os

import pytest

from repro import telemetry
from repro.errors import ConfigError
from repro.runtime import (
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
    resolve_jobs,
)


def _square(x):
    return x * x


def _flaky(x, fail_on):
    if x == fail_on:
        raise ValueError(f"boom at {x}")
    return x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_garbage_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs(None) == 1

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        with pytest.raises(ConfigError) as err:
            resolve_jobs(-1)
        assert err.value.field == "jobs"

    def test_negative_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ConfigError, match="REPRO_JOBS") as err:
            resolve_jobs(None)
        assert err.value.field == "jobs"


class TestGetExecutor:
    def test_jobs_one_is_serial(self):
        assert isinstance(get_executor(1), SerialExecutor)

    def test_jobs_above_one_is_process(self):
        assert isinstance(get_executor(2), ProcessExecutor)


@pytest.mark.parametrize("executor_cls", [SerialExecutor, ProcessExecutor],
                         ids=["serial", "process"])
class TestMapOrdering:
    def test_results_in_item_order(self, executor_cls):
        executor = executor_cls(3)
        items = list(range(17))
        assert executor.map(_square, items) == [x * x for x in items]

    def test_empty_items(self, executor_cls):
        assert executor_cls(2).map(_square, []) == []

    def test_multi_item_chunks_preserve_order(self, executor_cls):
        # 61 items over 3 workers: automatic chunks of 5 (the last one
        # short), so order must survive chunk boundaries.
        items = list(range(61))
        assert executor_cls(3).map(_square, items) == [
            x * x for x in items
        ]


class TestFailurePaths:
    def test_serial_error_raised(self):
        with pytest.raises(ExecutorError) as err:
            SerialExecutor(1).map(lambda x: _flaky(x, 2), [1, 2, 3])
        assert isinstance(err.value.__cause__, ValueError)

    def test_process_worker_error_propagates(self):
        executor = ProcessExecutor(2)
        with pytest.raises(ExecutorError):
            executor.map(_raise_value_error, [1])


def _raise_value_error(x):
    raise ValueError(x)


class TestPickleFallback:
    def test_unpicklable_fn_falls_back_to_serial(self):
        # A lambda cannot cross the process boundary; the executor must
        # detect this up front and run serially instead of crashing.
        executor = ProcessExecutor(2)
        out = executor.map(lambda x: x + 1, [1, 2, 3])
        assert out == [2, 3, 4]

    def test_unpicklable_item_falls_back_to_serial(self):
        executor = ProcessExecutor(2)
        items = [lambda: 1, lambda: 2]  # unpicklable payloads
        out = executor.map(_call, items)
        assert out == [1, 2]

    def test_fallback_counted(self):
        telemetry.reset()
        telemetry.enable()
        try:
            ProcessExecutor(2).map(lambda x: x, [1])
            summary = telemetry.metrics_summary()
            assert any(k.startswith("runtime.fallback") for k in summary)
        finally:
            telemetry.reset()
            telemetry.disable()


def _call(f):
    return f()


class TestChunking:
    def test_chunk_failure_recovered_serially(self):
        # Bad items fail their chunks in the pool; each failed chunk is
        # re-run in the parent, where the item's error surfaces typed.
        telemetry.reset()
        telemetry.enable()
        try:
            with pytest.raises(ExecutorError) as err:
                ProcessExecutor(2).map(_raise_value_error, list(range(16)))
            assert isinstance(err.value.__cause__, ValueError)
            summary = telemetry.metrics_summary()
            assert summary.get("runtime.chunk_failures", 0) >= 1
        finally:
            telemetry.reset()
            telemetry.disable()


class TestTelemetryAcrossProcesses:
    def test_worker_spans_merged_into_parent(self):
        telemetry.reset()
        telemetry.enable()
        try:
            with telemetry.span("parent"):
                ProcessExecutor(2).map(_traced_task, [1, 2, 3, 4])
            roots = telemetry.tracer.roots
            assert len(roots) == 1
            names = [c.name for c in roots[0].children]
            assert names.count("task") == 4
            summary = telemetry.metrics_summary()
            assert summary.get("runtime.test_tasks") == 4
        finally:
            telemetry.reset()
            telemetry.disable()


def _traced_task(x):
    with telemetry.span("task", x=x):
        telemetry.count("runtime.test_tasks")
    return x
