"""Executor: one ordered ``map(fn, items)`` over serial/thread/process.

The flow's parallel work is independent fan-outs -- one characterization
per cell per corner, one ISS run per SEU injection, one self-contained
experiment per artifact.  This module gives them a single API::

    from repro.runtime import get_executor

    ex = get_executor(jobs=4)              # or REPRO_JOBS=4 in the env
    results = ex.map(fn, items)            # ordered like ``items``

Design points:

* **Backend selection.**  ``get_executor(jobs=, backend=)`` resolves the
  worker count from the ``jobs`` argument, then the ``REPRO_JOBS``
  environment variable, then 1; the backend is the caller's ``backend``
  argument, else ``"process"``.  ``jobs <= 1`` always yields the serial
  executor -- zero overhead, identical semantics.
* **Determinism.**  ``map()`` returns results in item order regardless
  of completion order, so a parallel fan-out aggregates bit-identically
  to the serial loop.
* **Chunking.**  Items go out in chunks of ``len(items)/(4*jobs)``, so
  per-task IPC overhead is paid per chunk, not per item.
* **Fallback to serial.**  If the pool cannot start (no ``fork`` or
  semaphores in the sandbox) or the function/items fail to pickle, the
  call runs serially and counts ``runtime.fallback.<backend>_to_serial``.
  Callers never see the difference.
* **Worker-death recovery.**  A chunk whose future fails -- its worker
  was hard-killed, or an item raised -- is re-run once in the parent
  (counter ``runtime.chunk_failures``).  An item that fails there
  raises :class:`ExecutorError` chaining its exception.
* **Telemetry across the boundary.**  Worker processes record their own
  spans and metrics and ship them back as snapshots; the parent merges
  them under the span that was active when ``map()`` was called, so
  ``--trace`` on a parallel run still shows per-item spans.  Worker
  threads share the (thread-aware) tracer; their root spans are
  re-parented the same way.
"""

from __future__ import annotations

import logging
import os
import pickle
from typing import Callable, Iterable

from repro import telemetry
from repro.errors import ConfigError

__all__ = [
    "Executor",
    "ExecutorError",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
    "resolve_jobs",
]

_LOG = logging.getLogger(__name__)


class ExecutorError(RuntimeError):
    """An item failed in the calling process (its exception is chained)."""


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit ``jobs`` > ``REPRO_JOBS`` env > 1.

    ``jobs=0`` (or ``REPRO_JOBS=0``) means "one worker per CPU"; a
    negative count raises :class:`~repro.errors.ConfigError`.
    """
    source = "jobs"
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            _LOG.warning("ignoring non-integer REPRO_JOBS=%r", env)
            return 1
        source = "REPRO_JOBS"
    if jobs < 0:
        raise ConfigError(f"{source} must be >= 0 (got {jobs})",
                          field="jobs")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# ---------------------------------------------------------------------- #
# Worker-side chunk runner (module-level: must pickle for processes).
# ---------------------------------------------------------------------- #
def _run_chunk(fn: Callable, chunk: list, capture_telemetry: bool):
    """Run ``fn`` over one chunk in a pool worker.

    In a worker *process* this also isolates and captures telemetry:
    the child starts from a clean slate (a forked child inherits the
    parent's trace mid-flight) and returns its spans/metrics snapshot
    for the parent to merge.
    """
    if capture_telemetry:
        telemetry.reset()
        telemetry.enable()
        results = [fn(item) for item in chunk]
        return results, telemetry.snapshot()
    results = [fn(item) for item in chunk]
    return results, None


def _run_here(fn: Callable, items: list, start: int = 0) -> list:
    """Run ``fn`` over ``items`` in this process, typing any failure."""
    out = []
    for k, item in enumerate(items):
        try:
            out.append(fn(item))
        except Exception as exc:  # noqa: BLE001 - typed and chained
            raise ExecutorError(
                f"item {start + k} failed: {type(exc).__name__}: {exc}"
            ) from exc
    return out


class Executor:
    """Base class: an order-preserving ``map``, serial by default."""

    backend = "serial"

    def __init__(self, jobs: int = 1):
        self.jobs = max(1, jobs)

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item; results ordered like ``items``.

        An item that fails raises :class:`ExecutorError` chaining its
        exception.
        """
        items = list(items)
        if not items:
            return []
        return self._map(fn, items)

    def _map(self, fn: Callable, items: list) -> list:
        return _run_here(fn, items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """The in-process reference backend (and universal fallback)."""


class _PooledExecutor(Executor):
    """Shared machinery for the thread and process backends."""

    def _pool(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _check_picklable(self, fn, items) -> None:
        """Processes only: surface pickle failures *before* the pool."""

    def _map(self, fn, items):
        try:
            self._check_picklable(fn, items)
            pool = self._pool()
        except Exception as exc:  # noqa: BLE001 - any startup failure
            _LOG.debug("%s backend unavailable (%s: %s); "
                       "falling back to serial", self.backend,
                       type(exc).__name__, exc)
            telemetry.count(f"runtime.fallback.{self.backend}_to_serial")
            return _run_here(fn, items)

        capture = self.backend == "process" and telemetry.enabled()
        parent_span = telemetry.current_span()
        mark = telemetry.tracer.mark()
        # ~4 chunks per worker balances stragglers against IPC cost.
        size = max(1, len(items) // (4 * self.jobs))
        results: list = []
        try:
            with pool as ex:
                futures = [
                    (start, ex.submit(_run_chunk, fn,
                                      items[start:start + size], capture))
                    for start in range(0, len(items), size)
                ]
                for start, future in futures:
                    results += self._collect(
                        fn, future, items[start:start + size], start)
        finally:
            if self.backend == "thread":
                # Worker-thread spans landed as new tracer roots; hang
                # them under the span that was active at the call site.
                telemetry.tracer.reparent(mark, parent_span)
        return results

    def _collect(self, fn, future, chunk, start):
        """One chunk's results; a failed chunk is re-run in the parent."""
        try:
            chunk_results, snapshot = future.result()
        except Exception as exc:  # noqa: BLE001 - dead worker or item
            _LOG.debug("chunk at %d failed on %s backend (%s: %s); "
                       "re-running it in the parent", start, self.backend,
                       type(exc).__name__, exc)
            telemetry.count("runtime.chunk_failures")
            return _run_here(fn, chunk, start)
        if snapshot is not None:
            telemetry.merge_snapshot(snapshot)
        return chunk_results


class ThreadExecutor(_PooledExecutor):
    backend = "thread"

    def _pool(self):
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(max_workers=self.jobs)


class ProcessExecutor(_PooledExecutor):
    backend = "process"

    def _pool(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=self.jobs)

    def _check_picklable(self, fn, items) -> None:
        # One representative item: campaign/cell items are homogeneous,
        # and a full scan would double-serialize every payload.
        pickle.dumps(fn)
        pickle.dumps(items[0])


_BACKENDS: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}

BACKENDS = tuple(_BACKENDS)


def get_executor(jobs: int | None = None,
                 backend: str | None = None) -> Executor:
    """The executor for a fan-out: see module docstring for resolution."""
    n = resolve_jobs(jobs)
    if backend is not None and backend not in _BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r}; pick from {BACKENDS}")
    if n <= 1:
        return SerialExecutor(1)
    return _BACKENDS[backend or "process"](n)
