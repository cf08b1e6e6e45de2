"""repro.runtime: parallel execution + content-addressed result caching.

The flow's throughput comes from three embarrassingly parallel fan-outs
-- per-cell characterization, per-injection SEU runs, per-artifact
experiments.  This package gives them shared infrastructure:

* :mod:`~repro.runtime.executor` -- an ordered ``Executor.map(fn,
  items)`` sized by ``jobs=`` / ``REPRO_JOBS``: serial for one worker,
  a process pool otherwise, with automatic chunking, fallback to serial
  when the pool cannot start or payloads fail to pickle, in-parent
  re-run of a chunk whose worker died, and worker telemetry merged into
  the caller's trace;
* :mod:`~repro.runtime.cache` -- an on-disk result cache keyed by
  content digests, on exactly when ``REPRO_CACHE_DIR`` names its root;
* :mod:`~repro.runtime.digest` -- the stable structural hashing that
  produces those keys and backs every config's ``config_digest()``.

See ``docs/ARCHITECTURE.md`` ("Runtime & caching").
"""

from repro.runtime.cache import ResultCache, env_cache
from repro.runtime.digest import (
    config_from_dict,
    config_to_dict,
    stable_digest,
)
from repro.runtime.executor import (
    Executor,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
    resolve_jobs,
)

__all__ = [
    "Executor",
    "ExecutorError",
    "ProcessExecutor",
    "ResultCache",
    "SerialExecutor",
    "config_from_dict",
    "config_to_dict",
    "env_cache",
    "get_executor",
    "resolve_jobs",
    "stable_digest",
]
