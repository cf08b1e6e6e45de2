"""Per-layer tracing by outside wrapping.

The benchmark never edits the program: a traced run replaces public
entry points with timing wrappers *where their callers look them up*
(``CryoStudy.timing`` calls ``repro.core.flow.sta_analyze``, so that is
the attribute patched, not ``repro.sta.analyze``) and restores every
attribute when the run ends.

Each wrapper adds its call's inclusive time to a named accumulator,
and an optional ``after`` hook turns the call's arguments and result
into work counts.  The outermost wrapped call on each thread also
records its wall-clock interval; the union of those intervals is the
time attributed to some layer, and the rest of a run is
``core.unattributed_frac``.  Every wrapper measures its own
bookkeeping, which gives ``trace_overhead_frac``.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "union_seconds"]

_MISSING = object()


def union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Install timing wrappers, accumulate per-layer totals, restore."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)
        self.intervals: list[tuple[float, float]] = []
        self.bookkeeping_s = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def add(self, name: str, value: float) -> None:
        """Accumulate a count or a time under ``name`` (thread-safe)."""
        with self._lock:
            self.totals[name] += value

    def wrap(self, owner, attr: str, time_key: str, after=None,
             before=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``time_key`` accumulates inclusive seconds and ``<time_key>#calls``
        the call count.  ``before(args, kwargs)`` runs just before the
        call.  ``after(args, kwargs, result, seconds)`` may record counts
        and returns the result handed to the caller (so a hook can wrap a
        returned closure).  Hook time counts as tracer bookkeeping.
        """
        raw = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if before is not None:
                    tracer._hook(before, args, kwargs)
                t0 = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    tracer._record(time_key, t0, t1, True)
                if after is not None:
                    result = tracer._hook(after, args, kwargs, result,
                                          t1 - t0)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if before is not None:
                    tracer._hook(before, args, kwargs)
                local = tracer._local
                depth = getattr(local, "depth", 0)
                local.depth = depth + 1
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    local.depth = depth
                    tracer._record(time_key, t0, t1, depth == 0)
                if after is not None:
                    result = tracer._hook(after, args, kwargs, result,
                                          t1 - t0)
                return result

        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    def _record(self, key: str, t0: float, t1: float,
                outermost: bool) -> None:
        b0 = time.perf_counter()
        with self._lock:
            self.totals[key] += t1 - t0
            self.totals[key + "#calls"] += 1
            if outermost:
                self.intervals.append((t0, t1))
            self.bookkeeping_s += time.perf_counter() - b0

    def _hook(self, hook, *hook_args):
        b0 = time.perf_counter()
        result = hook(*hook_args)
        spent = time.perf_counter() - b0
        with self._lock:
            self.bookkeeping_s += spent
        return result

    def get(self, key: str) -> float:
        return self.totals.get(key, 0.0)

    def attributed_seconds(self, windows: list[tuple[float, float]]
                           ) -> float:
        """Attributed time that falls inside the given run windows."""
        clipped = []
        for start, end in self.intervals:
            for w0, w1 in windows:
                lo, hi = max(start, w0), min(end, w1)
                if hi > lo:
                    clipped.append((lo, hi))
        return union_seconds(clipped)
