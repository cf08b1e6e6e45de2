"""Span primitives: nested timed regions collected into a trace tree.

A :class:`Span` is a context manager recording wall-clock start time,
monotonic duration and arbitrary attributes.  Spans nest: the
:class:`Tracer` keeps a stack of open spans, so a span opened while
another is active becomes its child and finished root spans accumulate
in :attr:`Tracer.roots` -- the per-run trace tree the sinks render.

When telemetry is disabled the façade hands out the :data:`NOOP_SPAN`
singleton instead, whose every method is a no-op, so instrumented code
pays one branch and zero allocations (see
:mod:`repro.telemetry.__init__`).

The tracer is process-local and *thread-aware*: each thread nests spans
on its own stack (``threading.local``), so threads (the serving loop and
its predict workers) record clean subtrees instead of corrupting each
other's nesting.  A span opened in a thread with no enclosing span lands
in the shared :attr:`Tracer.roots` list.  Spans also round-trip through
plain dicts (:meth:`Span.to_dict` / :meth:`Span.from_dict`) so worker
*processes* can ship their trees back to the parent.
"""

from __future__ import annotations

import threading
import time
from datetime import datetime, timezone

__all__ = ["NOOP_SPAN", "Span", "Tracer", "iso_ts"]


def iso_ts(wall: float) -> str:
    """``start_wall`` (epoch seconds) as an ISO-8601 UTC timestamp.

    The trace JSONL and the provenance run ledger both stamp records
    with this, so spans and runs correlate across files and machines
    without epoch-vs-local guessing.
    """
    stamp = datetime.fromtimestamp(wall, timezone.utc)
    return stamp.isoformat(timespec="microseconds").replace("+00:00", "Z")


class Span:
    """One timed region of the trace tree."""

    __slots__ = ("name", "attrs", "start_wall", "duration_s", "children",
                 "_t0", "_tracer")

    def __init__(self, name: str, attrs: dict | None, tracer: "Tracer | None"):
        self.name = name
        self.attrs: dict = dict(attrs) if attrs else {}
        self.start_wall: float = 0.0
        self.duration_s: float = 0.0
        self.children: list[Span] = []
        self._t0: float = 0.0
        self._tracer = tracer

    # ------------------------------------------------------------------ #
    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; chainable."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.start_wall = time.time()
        self._t0 = time.perf_counter()
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A picklable/JSON-able encoding of the subtree (recursive)."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start_wall": self.start_wall,
            "start_ts": iso_ts(self.start_wall),
            "duration_s": self.duration_s,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a detached span tree written by :meth:`to_dict`."""
        span = cls(data["name"], data.get("attrs"), tracer=None)
        span.start_wall = data.get("start_wall", 0.0)
        span.duration_s = data.get("duration_s", 0.0)
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        return span

    # ------------------------------------------------------------------ #
    def walk(self):
        """Yield (depth, span) over the subtree, pre-order."""
        stack = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
                f"{len(self.children)} children)")


class _NoopSpan:
    """The disabled-path stand-in: every operation is a no-op.

    A single module-level instance is shared by every ``span()`` call
    made while telemetry is off, so the disabled path never allocates.
    """

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished spans into per-run trace trees."""

    __slots__ = ("roots", "_local", "_lock")

    def __init__(self):
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self) -> list[Span]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, attrs: dict | None = None) -> Span:
        """Create an *unopened* span bound to this tracer.

        The caller enters it with ``with``; parenting happens at entry
        time so construction order does not matter.
        """
        return Span(name, attrs, self)

    # ------------------------------------------------------------------ #
    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate out-of-order exits (e.g. a generator finalized late):
        # unwind to the span being closed rather than corrupting the tree.
        stack = self._stack
        while stack:
            top = stack.pop()
            if top is span:
                break
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> Span | None:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack
        return stack[-1] if stack else None

    def adopt(self, spans: list[Span], parent: Span | None = None) -> None:
        """Attach detached trees under ``parent`` (or the caller's
        active span, or as new roots) -- how worker-process snapshots
        rejoin the parent's trace."""
        parent = parent if parent is not None else self.active
        if parent is not None:
            parent.children.extend(spans)
        else:
            with self._lock:
                self.roots.extend(spans)

    def reset(self) -> None:
        with self._lock:
            self.roots = []
        self._local = threading.local()

    def all_spans(self):
        """Yield every finished span, pre-order across all roots."""
        for root in self.roots:
            for _, span in root.walk():
                yield span
