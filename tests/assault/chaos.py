"""Seeded chaos injectors: controlled damage to the repro stack itself.

The reliability layer attacks the *simulated* hardware with SEU
campaigns; this module attacks the *reproduction infrastructure* -- the
cache, the run ledger, the executor's worker pool, the solver -- the
way a chaos-engineering harness attacks a production service.  Every
injector is

* **seeded**: all randomness flows from the :class:`ChaosMonkey`'s own
  ``random.Random(seed)``, so a failing scenario replays
  bit-identically;
* **a context manager**: damage is applied on entry and *reverted* on
  exit, so the endurance scenarios can loop injections against one
  sandbox without compounding state, and a scenario can assert both the
  degraded behavior (inside the block) and the recovery (after it);
* **surgical**: each targets exactly one failure mode named by the
  scenario corpus (truncation, bit flip, stale-version poisoning,
  ledger line corruption, worker death, solver non-convergence).

None of these helpers are used by production code paths; they exist for
the scenario corpus (``tests/assault/test_corpus.py``) and the chaos
tests.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import random

from repro.errors import ConfigError

__all__ = ["ChaosMonkey", "WorkerAssassin"]

#: Ledger corruption modes accepted by :meth:`ChaosMonkey.corrupted_ledger`.
LEDGER_MODES = ("garbage", "binary", "truncate", "midline")


class WorkerAssassin:
    """Picklable wrapper that hard-kills pool workers on marked items.

    Calls ``fn(item)`` normally -- except in a *worker process* (pid
    differs from the recorded parent) when ``item`` is in the kill set,
    where it exits the process without cleanup (``os._exit``), the
    closest safe stand-in for an OOM kill or a segfault.  The parent
    process never dies: when the executor re-runs the dead chunk
    in-process, the pid check passes and the real function runs.
    """

    def __init__(self, fn, kill_items, parent_pid: int):
        self.fn = fn
        self.kill_items = frozenset(kill_items)
        self.parent_pid = parent_pid

    def __call__(self, item):
        if os.getpid() != self.parent_pid and item in self.kill_items:
            os._exit(17)
        return self.fn(item)


class ChaosMonkey:
    """A seeded bag of infrastructure fault injectors (see module doc)."""

    def __init__(self, seed: int = 2023):
        self.seed = seed
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------ #
    # ResultCache attacks
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def truncated_cache_entry(self, cache, key: str):
        """Cut a cached entry short (torn write / partial disk flush)."""
        path = cache.path(key)
        original = path.read_bytes()
        keep = self.rng.randrange(1, max(2, len(original)))
        path.write_bytes(original[:keep])
        try:
            yield path
        finally:
            path.write_bytes(original)

    @contextlib.contextmanager
    def bitflipped_cache_entry(self, cache, key: str):
        """Flip one random bit of a cached entry (media corruption)."""
        path = cache.path(key)
        original = path.read_bytes()
        damaged = bytearray(original)
        i = self.rng.randrange(len(damaged))
        damaged[i] ^= 1 << self.rng.randrange(8)
        path.write_bytes(bytes(damaged))
        try:
            yield path
        finally:
            path.write_bytes(original)

    @contextlib.contextmanager
    def stale_version_entry(self, cache, key: str, poison):
        """Plant ``poison`` under the *previous* cache format version.

        Simulates the upgrade hazard: an entry written by an older
        build sits at the same key.  The content-addressed layout must
        keep it invisible -- ``get`` addresses only the current
        ``CACHE_VERSION`` suffix -- so the poison can never be served.
        """
        from repro.runtime.cache import CACHE_VERSION

        stale = (cache.root / cache.namespace
                 / f"{key}.v{CACHE_VERSION - 1}.pkl")
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_bytes(pickle.dumps(poison))
        try:
            yield stale
        finally:
            stale.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Run-ledger attacks
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def corrupted_ledger(self, ledger, mode: str = "garbage"):
        """Damage the ledger JSONL file; restores the original on exit.

        Modes: ``garbage`` appends a syntactically broken JSON line;
        ``binary`` appends raw random bytes (power loss mid-append over
        reused blocks); ``truncate`` cuts the final record mid-line;
        ``midline`` mangles a record in the *middle* of the file,
        leaving valid records on both sides.
        """
        if mode not in LEDGER_MODES:
            raise ConfigError(f"unknown ledger corruption mode {mode!r}; "
                              f"pick from {LEDGER_MODES}", field="mode")
        path = ledger.path
        ledger.runs_dir.mkdir(parents=True, exist_ok=True)
        original = path.read_bytes() if path.exists() else b""
        path.write_bytes(self._damage_ledger_bytes(original, mode))
        try:
            yield path
        finally:
            path.write_bytes(original)

    def _damage_ledger_bytes(self, original: bytes, mode: str) -> bytes:
        if mode == "garbage":
            return original + b'{"experiment": "half a reco\n'
        if mode == "binary":
            junk = bytes(self.rng.randrange(256) for _ in range(64))
            return original + junk + b"\n"
        if mode == "truncate":
            cut = self.rng.randrange(2, 40)
            return original[:max(1, len(original) - cut)]
        # midline: mangle a record mid-file, keeping its line structure.
        lines = original.splitlines(keepends=True)
        if not lines:
            return b'{"broken\n'
        idx = self.rng.randrange(len(lines))
        victim = lines[idx]
        lines[idx] = victim[:max(1, len(victim) // 2)].rstrip(b"\n") + b"\n"
        return b"".join(lines)

    # ------------------------------------------------------------------ #
    # Executor attacks
    # ------------------------------------------------------------------ #
    def worker_assassin(self, fn, kill_items,
                        parent_pid: int | None = None) -> WorkerAssassin:
        """A picklable ``fn`` wrapper that kills pool workers; see
        :class:`WorkerAssassin`."""
        return WorkerAssassin(fn, kill_items,
                              os.getpid() if parent_pid is None
                              else parent_pid)

    # ------------------------------------------------------------------ #
    # Solver attacks
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def hostile_solver(self, max_iterations: int = 1):
        """Make every nonlinear solve hopeless while the block runs.

        Caps the Newton inner loop at ``max_iterations`` (module-level
        knob, read at call time), so plain NR, every gmin rung, and
        every source step all fail and the solver must surface a clean
        :class:`~repro.spice.solver.ConvergenceError` carrying the full
        escalation history -- the "pathological gmin settings" failure
        the issue names, without waiting out a real pathological solve.
        """
        from repro.spice import solver

        saved = solver._MAX_NR_ITERATIONS
        solver._MAX_NR_ITERATIONS = max_iterations
        try:
            yield
        finally:
            solver._MAX_NR_ITERATIONS = saved
