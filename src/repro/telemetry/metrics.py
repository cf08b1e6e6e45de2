"""Process-local metrics: counters, gauges and histograms.

The registry is a plain dict of named instruments.  Instrumented code
normally goes through the façade helpers (:func:`repro.telemetry.count`
and friends) which are no-ops while telemetry is disabled; the registry
itself is always functional, so infrastructure that *owns* its
bookkeeping (e.g. the benchmark harness) can write to it directly
regardless of the global flag.  :class:`Histogram` is the codebase's
one histogram type (the serving layer's rolling window extends it).
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: One lock for every counter/gauge mutation: instruments are only
#: touched while telemetry is enabled (the facade checks first), and the
#: parallel runtime's worker threads must not lose increments to read-
#: modify-write races.  Uncontended acquisition is ~100 ns -- noise next
#: to the work being counted.
_LOCK = threading.Lock()

#: Default per-bin relative spacing of :class:`Histogram` (~4 %).
DEFAULT_REL_ERROR = 0.04


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with _LOCK:
            self.value += n


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        # Same lock discipline as Counter.inc: the float conversion can
        # run arbitrary __float__ code, and the parallel runtime's merge
        # path writes gauges from several threads -- last-write-wins
        # must mean a *whole* write.
        value = float(value)
        with _LOCK:
            self.value = value


class Histogram:
    """Log-binned, fixed-memory distribution with exact count/sum/min/max.

    Bin edges grow by ``1 + rel_error`` per bin between ``lo`` and
    ``hi``; values outside clamp to the end bins.  A percentile is the
    geometric midpoint of the bin holding the nearest-rank target,
    clamped to ``[min, max]`` (so one observation reports exactly) --
    within ``rel_error`` of the exact value.  Memory is fixed however
    many observations stream through, and :meth:`merge` adds bins, so a
    merged histogram equals one that observed every value.
    """

    __slots__ = ("name", "lo", "rel_error", "_growth", "_bins", "count",
                 "sum", "min", "max", "_lock")

    def __init__(self, name: str = "", *, lo: float = 1e-6,
                 hi: float = 1e6, rel_error: float = DEFAULT_REL_ERROR):
        if not (0 < lo < hi):
            raise ValueError(f"need 0 < lo < hi, got {lo!r}/{hi!r}")
        if not 0 < rel_error < 1:
            raise ValueError(f"rel_error must be in (0, 1), got "
                             f"{rel_error!r}")
        self.name = name
        self.lo = lo
        self.rel_error = rel_error
        self._growth = math.log1p(rel_error)
        n_bins = int(math.log(hi / lo) / self._growth) + 2
        self._bins = np.zeros(n_bins, dtype=np.int64)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def _bin(self, value: float) -> int:
        if not value > self.lo:
            return 0
        index = int(math.log(value / self.lo) / self._growth) + 1
        return min(index, len(self._bins) - 1)

    def _record(self, value: float, index: int) -> None:
        """Count ``value`` into bin ``index``; the caller holds the lock."""
        self._bins[index] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def observe(self, value: float) -> None:
        value = float(value)
        index = self._bin(value)
        with self._lock:
            self._record(value, index)

    def _value_at(self, bins: np.ndarray, q: float) -> float:
        """Percentile ``q`` of ``bins``, 0.0 if empty (lock held)."""
        total = int(bins.sum())
        if total == 0:
            return 0.0
        rank = min(total - 1, max(0, round(q / 100.0 * (total - 1))))
        index = int(np.searchsorted(np.cumsum(bins), rank + 1))
        value = (self.lo * math.exp((index - 0.5) * self._growth)
                 if index else self.lo)
        return min(max(value, self.min), self.max)

    def percentile(self, q: float) -> float:
        with self._lock:
            return self._value_at(self._bins, q)

    def summary(self) -> dict[str, float]:
        with self._lock:
            if not self.count:
                return {"count": 0}
            return {"count": self.count, "total": self.sum,
                    "mean": self.sum / self.count,
                    "min": self.min, "max": self.max,
                    **{f"p{q}": self._value_at(self._bins, q)
                       for q in (50, 95, 99)}}

    @property
    def nbytes(self) -> int:
        """Bin storage footprint -- constant by construction."""
        return self._bins.nbytes

    def state(self) -> dict:
        """Fixed-size picklable state (the count is the bin total)."""
        with self._lock:
            return {"bins": self._bins.copy(), "sum": self.sum,
                    "min": self.min, "max": self.max}

    def merge(self, state: dict) -> None:
        """Add a same-geometry histogram's :meth:`state`."""
        with self._lock:
            self._bins += state["bins"]
            self.count += int(state["bins"].sum())
            self.sum += state["sum"]
            self.min = min(self.min, state["min"])
            self.max = max(self.max, state["max"])


class MetricsRegistry:
    """Named instruments, created on first use."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:  # setdefault: racing creators share one
            c = self.counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:  # setdefault: racing creators share one
            g = self.gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:  # setdefault: racing creators share one
            h = self.histograms.setdefault(name, Histogram(name))
        return h

    # ------------------------------------------------------------------ #
    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def summary(self) -> dict[str, object]:
        """One flat dict over every instrument, sorted by name.

        Counters and gauges map to their value; histograms map to their
        summary dict.
        """
        out: dict[str, object] = {}
        for name in sorted(self.counters):
            out[name] = self.counters[name].value
        for name in sorted(self.gauges):
            out[name] = self.gauges[name].value
        for name in sorted(self.histograms):
            out[name] = self.histograms[name].summary()
        return out

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    # ------------------------------------------------------------------ #
    # Cross-process transport: plain-data snapshot + merge.
    # ------------------------------------------------------------------ #
    def snapshot_data(self) -> dict:
        """Every instrument's state as picklable data of fixed size."""
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "gauges": {n: g.value for n, g in self.gauges.items()},
            "histograms": {n: h.state() for n, h in self.histograms.items()},
        }

    def merge_data(self, data: dict) -> None:
        """Fold a worker's :meth:`snapshot_data` into this registry.

        Counters add (they are deltas from the worker's clean slate),
        histogram bins add, gauges last-write-win -- the same semantics
        the instruments would have had in-process.  Every mutation goes
        through the instruments' own locked methods, so concurrent
        merges from several pool-drain threads interleave whole writes.
        """
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, state in data.get("histograms", {}).items():
            self.histogram(name).merge(state)
