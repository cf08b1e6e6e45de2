"""repro.runtime: parallel execution + content-addressed result caching.

The flow's throughput comes from three embarrassingly parallel fan-outs
-- per-cell characterization, per-injection SEU runs, per-artifact
experiments.  This package gives them shared infrastructure:

* :mod:`~repro.runtime.executor` -- an ordered ``Executor.map(fn,
  items)`` over ``serial``/``thread``/``process`` backends, sized by
  ``jobs=`` / ``REPRO_JOBS``, with automatic chunking, fallback to
  serial when a backend is unavailable or payloads fail to pickle,
  in-parent re-run of a chunk whose worker died, and worker telemetry
  merged into the caller's trace;
* :mod:`~repro.runtime.cache` -- an on-disk result cache keyed by
  content digests (``~/.cache/repro`` or ``REPRO_CACHE_DIR``), opt-in
  via the environment;
* :mod:`~repro.runtime.digest` -- the stable structural hashing that
  produces those keys and backs every config's ``config_digest()``.

See ``docs/ARCHITECTURE.md`` ("Runtime & caching").
"""

from repro.runtime.cache import ResultCache, default_cache_dir, default_enabled
from repro.runtime.digest import (
    config_from_dict,
    config_to_dict,
    stable_digest,
)
from repro.runtime.executor import (
    BACKENDS,
    Executor,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    resolve_jobs,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "ExecutorError",
    "ProcessExecutor",
    "ResultCache",
    "SerialExecutor",
    "ThreadExecutor",
    "config_from_dict",
    "config_to_dict",
    "default_cache_dir",
    "default_enabled",
    "get_executor",
    "resolve_jobs",
    "stable_digest",
]
