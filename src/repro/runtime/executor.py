"""Executor: one ordered ``map(fn, items)``, serial or a process pool.

The flow's parallel work is independent fan-outs -- one characterization
per cell per corner, one ISS run per SEU injection, one self-contained
experiment per artifact.  This module gives them a single API::

    from repro.runtime import get_executor

    ex = get_executor(jobs=4)              # or REPRO_JOBS=4 in the env
    results = ex.map(fn, items)            # ordered like ``items``

Design points:

* **Selection.**  ``get_executor(jobs=)`` resolves the worker count from
  the ``jobs`` argument, then the ``REPRO_JOBS`` environment variable,
  then 1.  ``jobs <= 1`` yields the serial executor -- zero overhead,
  identical semantics; more workers yield a process pool.
* **Determinism.**  ``map()`` returns results in item order regardless
  of completion order, so a parallel fan-out aggregates bit-identically
  to the serial loop.
* **Chunking.**  Items go out in chunks of ``len(items)/(4*jobs)``, so
  per-task IPC overhead is paid per chunk, not per item.
* **Fallback to serial.**  If the pool cannot start (no ``fork`` or
  semaphores in the sandbox) or the function/items fail to pickle, the
  call runs serially and counts ``runtime.fallback.process_to_serial``.
  Callers never see the difference.
* **Worker-death recovery.**  A chunk whose future fails -- its worker
  was hard-killed, or an item raised -- is re-run once in the parent
  (counter ``runtime.chunk_failures``).  An item that fails there
  raises :class:`ExecutorError` chaining its exception.
* **Telemetry across the boundary.**  Worker processes record their own
  spans and metrics and ship them back as snapshots; the parent merges
  them under the span that was active when ``map()`` was called, so
  ``--trace`` on a parallel run still shows per-item spans.
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

    With telemetry on, this also isolates and captures it: the child
    starts from a clean slate (a forked child inherits the parent's
    trace mid-flight) and returns its spans/metrics snapshot for the
    parent to merge.
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


class ProcessExecutor(Executor):
    """A process pool of ``jobs`` workers fed in ordered chunks."""

    backend = "process"

    def _map(self, fn, items):
        try:
            # One representative item: campaign/cell items are
            # homogeneous, and a full scan would double-serialize every
            # payload.
            pickle.dumps(fn)
            pickle.dumps(items[0])
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=self.jobs)
        except Exception as exc:  # noqa: BLE001 - any startup failure
            _LOG.debug("process pool unavailable (%s: %s); "
                       "falling back to serial", type(exc).__name__, exc)
            telemetry.count("runtime.fallback.process_to_serial")
            return _run_here(fn, items)

        capture = telemetry.enabled()
        # ~4 chunks per worker balances stragglers against IPC cost.
        size = max(1, len(items) // (4 * self.jobs))
        results: list = []
        with pool as ex:
            futures = [
                (start, ex.submit(_run_chunk, fn,
                                  items[start:start + size], capture))
                for start in range(0, len(items), size)
            ]
            for start, future in futures:
                results += self._collect(
                    fn, future, items[start:start + size], start)
        return results

    def _collect(self, fn, future, chunk, start):
        """One chunk's results; a failed chunk is re-run in the parent."""
        try:
            chunk_results, snapshot = future.result()
        except Exception as exc:  # noqa: BLE001 - dead worker or item
            _LOG.debug("chunk at %d failed in the process pool (%s: %s); "
                       "re-running it in the parent", start,
                       type(exc).__name__, exc)
            telemetry.count("runtime.chunk_failures")
            return _run_here(fn, chunk, start)
        if snapshot is not None:
            telemetry.merge_snapshot(snapshot)
        return chunk_results


def get_executor(jobs: int | None = None) -> Executor:
    """Serial for ``jobs <= 1``, else a process pool; ``jobs`` resolves
    as in :func:`resolve_jobs`."""
    n = resolve_jobs(jobs)
    return SerialExecutor(1) if n <= 1 else ProcessExecutor(n)
