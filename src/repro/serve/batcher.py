"""Micro-batching: coalesce concurrent requests into one ``predict``.

The economics of the vectorized classifiers invert the usual
one-request-one-call instinct: a :meth:`Classifier.predict` over 4096
concatenated shots costs barely more than one over 64, so the service
holds each arriving request for at most ``window_s`` and classifies
everything that accumulated per model in a *single* vectorized call,
then splits the label array back to the per-request futures.

The split is bit-identical to serving each request alone because (a)
every classifier's ``predict`` is row-wise independent by construction
(the protocol contract :mod:`repro.classify.base` documents) and (b)
each request's qubit indices are resolved *before* concatenation, so
the interleaved-layout default (``arange(n) % n_qubits``) is computed
per request, never across the fused batch.  The serving-equivalence
tests pin exactly this property.

A batch flushes early when its shot count reaches
:data:`MAX_BATCH_SHOTS`; requests whose deadline expired while queued are
resolved with :class:`~repro.errors.DeadlineError` at flush time and
never reach the model.  Predict runs on one of
:data:`PREDICT_WORKERS` threads (the registry models are shared
read-only) so the event loop keeps accepting and rejecting while numpy
crunches.  :attr:`MicroBatcher.batches` counts the fused predict calls.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.classify import Classifier
from repro.errors import DeadlineError

__all__ = ["MicroBatcher"]

#: Early-flush threshold: fused shots per predict call.
MAX_BATCH_SHOTS = 8192

#: Threads running the vectorized predict calls.
PREDICT_WORKERS = 2


class _Pending:
    """One admitted request waiting for its batch to flush."""

    __slots__ = ("deadline_s", "enqueued_s", "future", "iq", "qubit")

    def __init__(self, iq: np.ndarray, qubit: np.ndarray,
                 deadline_s: float | None, future: asyncio.Future):
        self.iq = iq
        self.qubit = qubit
        self.deadline_s = deadline_s
        self.future = future
        self.enqueued_s = time.perf_counter()


class MicroBatcher:
    """Per-model request coalescing (see module docstring).

    Must be created and used from a single running event loop; the
    vectorized predict itself runs on ``PREDICT_WORKERS`` pool threads.
    """

    def __init__(self, *, window_s: float = 0.002):
        self.window_s = window_s
        self.batches = 0
        """Fused predict calls started so far."""
        self._pending: dict[str, list[_Pending]] = {}
        self._pending_shots: dict[str, int] = {}
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self._models: dict[str, Classifier] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=PREDICT_WORKERS, thread_name_prefix="serve-predict")

    # ------------------------------------------------------------------ #
    async def submit(self, name: str, model: Classifier, iq: np.ndarray,
                     qubit: np.ndarray, deadline_s: float | None
                     ) -> tuple[np.ndarray, int]:
        """Queue one request; resolves to ``(labels, batch_size)``.

        ``qubit`` must already be resolved to one index per row (the
        server does this against the model before admission).
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._models[name] = model
        bucket = self._pending.setdefault(name, [])
        bucket.append(_Pending(iq, qubit, deadline_s, future))
        self._pending_shots[name] = \
            self._pending_shots.get(name, 0) + len(iq)
        if self._pending_shots[name] >= MAX_BATCH_SHOTS:
            self._flush(name)
        elif name not in self._timers:
            self._timers[name] = loop.call_later(
                self.window_s, self._flush, name)
        return await future

    def close(self) -> None:
        """Flush nothing further; release the predict worker pool."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------------ #
    def _flush(self, name: str) -> None:
        """Fuse the model's pending requests into one predict call."""
        timer = self._timers.pop(name, None)
        if timer is not None:
            timer.cancel()
        batch = self._pending.pop(name, [])
        self._pending_shots.pop(name, None)
        if not batch:
            return

        now = time.perf_counter()
        live: list[_Pending] = []
        for item in batch:
            if item.future.cancelled():
                continue
            if item.deadline_s is not None and now > item.deadline_s:
                item.future.set_exception(DeadlineError(
                    f"deadline expired after "
                    f"{(now - item.enqueued_s) * 1e3:.1f} ms in queue"))
            else:
                live.append(item)
        if not live:
            return

        model = self._models[name]
        fused_iq = np.concatenate([item.iq for item in live])
        fused_qubit = np.concatenate([item.qubit for item in live])
        self.batches += 1
        task = asyncio.get_running_loop().run_in_executor(
            self._pool, lambda: model.predict(fused_iq, qubit=fused_qubit))
        task.add_done_callback(
            lambda done: self._deliver(done, live))

    @staticmethod
    def _deliver(done: asyncio.Future, live: list[_Pending]) -> None:
        """Split the fused label array back onto the request futures."""
        exc = done.exception()
        offset = 0
        for item in live:
            n = len(item.iq)
            if not item.future.done():
                if exc is not None:
                    item.future.set_exception(exc)
                else:
                    item.future.set_result(
                        (done.result()[offset:offset + n], len(live)))
            offset += n
