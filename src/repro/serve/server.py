"""The asyncio classification server: admission, deadlines, telemetry.

Architecture (one event loop, a small predict thread pool)::

    asyncio.start_server
      └─ one reader task per connection (line-delimited JSON)
           └─ one task per request line
                └─ parse ─ model lookup ─ _classify
                     admission ─ deadline ─ micro-batcher

``_classify`` runs every classify request that parsed and named a
loaded model through the same three steps and counts its outcome once,
in one ``finally``:

admission
    Bounded-queue back-pressure.  If ``max_queue`` requests are already
    admitted (parsed, not yet answered), the request is rejected
    *immediately* with :class:`~repro.errors.ServeOverloadError` (429)
    -- the client gets a typed error in microseconds, never a hang,
    and ``serve.rejected`` counts it.
deadline
    Every request carries a deadline (its own ``deadline_ms`` or the
    server default); expiry resolves to
    :class:`~repro.errors.DeadlineError` (408) whether the time went
    to queueing or to a stalled client.
micro-batcher
    :class:`~repro.serve.batcher.MicroBatcher` fuses concurrent
    requests into one vectorized ``predict``.

Slow *readers* are handled on the write side: each response drain is
bounded by ``write_timeout_s``, and a client that stalls its socket
long enough is disconnected (``serve.slow_client_disconnects``)
instead of parking a connection task forever.

Every count lives in one place, the session's
:class:`~repro.observe.live.LiveMetrics`: its counter totals are the
``{"op": "stats"}`` snapshot's ``counters`` and the metrics of the
``kind="serve"`` RunRecord each session appends to the provenance
ledger (with latency quantiles, throughput and the digests of the
models it served); its window counts are the snapshot's ``window``.

Live observability (:mod:`repro.observe.live` / ``.slo``) rides the
same path: every classify request carries a
:class:`~repro.observe.live.TraceContext` whose queue/batch/predict/
write spans the server tail-samples when the request failed or was
slower than the latency objective; the stats snapshot is answered
*before* admission, so scrapes are never rejected or queued; a
periodic observer task records event-loop lag and keeps the bounded
counter timeline the Perfetto export draws; and the latency and error
objectives are graded by burn rate into the session record's fidelity
verdict.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.classify import Classifier
from repro.errors import (
    ConfigError,
    DeadlineError,
    ServeError,
    ServeOverloadError,
    ServeProtocolError,
    ValidationError,
)
from repro.observe import slo as slo_mod
from repro.observe.live import LiveMetrics, TraceContext
from repro.provenance import RunLedger, RunRecord
from repro.serve.batcher import MAX_BATCH_SHOTS, MicroBatcher
from repro.serve.models import ModelRegistry
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ParsedRequest,
    error_response,
    ok_response,
    parse_request,
    stats_response,
)
from repro.telemetry import Span, iso_ts

__all__ = ["ClassifierServer", "ServeConfig", "ServerThread"]

#: How many tail-sampled request traces a session retains.
TRACE_CAPACITY = 64

#: Wire code -> counter of a request refused before admission.
_REFUSALS = {400: "bad_requests", 404: "unknown_model"}


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server session (validated up front)."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 = let the OS pick (the test/bench harness reads it back)."""
    batch_window_ms: float = 2.0
    """How long the micro-batcher holds a request for company."""
    max_queue: int = 64
    """Admitted-but-unanswered request cap; beyond it -> 429."""
    default_deadline_ms: float = 1000.0
    """Deadline for requests that do not carry their own."""
    write_timeout_s: float = 5.0
    """Per-response drain budget before a stalled reader is dropped."""
    sndbuf_bytes: int | None = None
    """Shrink per-connection send buffering (socket ``SO_SNDBUF`` plus
    the transport high-water mark); ``None`` keeps OS defaults.  The
    slow-client assault scenario sets this so a stalled reader trips
    the drain timeout deterministically instead of hiding behind
    megabytes of kernel buffer."""
    slo_latency_ms: float = slo_mod.DEFAULT_LATENCY_MS
    """Declared per-request latency objective (default: the paper's
    110 us decoherence budget at the serving benchmark's wire scale);
    requests at least this slow, or failed, keep their span tree."""

    def __post_init__(self):
        for name in ("batch_window_ms", "max_queue", "default_deadline_ms",
                     "write_timeout_s", "slo_latency_ms"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(
                    f"{name} must be positive, got {value!r}", field=name)
        if not 0 <= self.port <= 65535:
            raise ConfigError(
                f"port must be in 0..65535, got {self.port!r}",
                field="port")
        if self.sndbuf_bytes is not None and not self.sndbuf_bytes > 0:
            raise ConfigError(
                f"sndbuf_bytes must be positive or None, got "
                f"{self.sndbuf_bytes!r}", field="sndbuf_bytes")


class ClassifierServer:
    """Async batched classification over warm models (module docstring)."""

    def __init__(self, registry: ModelRegistry,
                 config: ServeConfig | None = None,
                 ledger: RunLedger | None = None):
        self.registry = registry
        self.config = config or ServeConfig()
        self.ledger = ledger
        self.host = self.config.host
        self.port = self.config.port
        self.live = LiveMetrics()
        self._sampled_traces: deque[Span] = deque(maxlen=TRACE_CAPACITY)
        self._counter_timeline: deque[tuple[float, dict]] = deque(
            maxlen=600)
        self._inflight = 0
        self._started_s = 0.0
        self._start_ts = ""
        self._server: asyncio.AbstractServer | None = None
        self._batcher: MicroBatcher | None = None
        self._observer_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        cfg = self.config
        self._batcher = MicroBatcher(
            window_s=cfg.batch_window_ms / 1e3, metrics=self.live)
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port,
            limit=MAX_LINE_BYTES)
        self.host, self.port = \
            self._server.sockets[0].getsockname()[:2]
        self._started_s = time.perf_counter()
        self._start_ts = iso_ts(time.time())
        self._observer_task = asyncio.ensure_future(self._observe_loop())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> RunRecord:
        """Close the socket, flush the session record to the ledger."""
        if self._observer_task is not None:
            self._observer_task.cancel()
            try:
                await self._observer_task
            except asyncio.CancelledError:
                pass
            self._observer_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
            self._conn_tasks.clear()
        if self._batcher is not None:
            self._batcher.close()
        record = self.session_record()
        if self.ledger is not None:
            self.ledger.append(record)
        return record

    # ------------------------------------------------------------------ #
    # Connection + request plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        conn_task = asyncio.current_task()
        self._conn_tasks.add(conn_task)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # Connections are cancelled only at shutdown (stop()).  Ending
            # normally keeps asyncio's stream callback, which calls
            # task.exception() on Python 3.11, from logging the cancel.
            pass
        finally:
            self._conn_tasks.discard(conn_task)

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.live.connections.add()
        if self.config.sndbuf_bytes:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                self.config.sndbuf_bytes)
            writer.transport.set_write_buffer_limits(
                high=self.config.sndbuf_bytes)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.live.bad_requests.add()
                    await self._send(writer, write_lock, error_response(
                        None, ServeProtocolError(
                            f"request line exceeds {MAX_LINE_BYTES} "
                            f"bytes", field="iq")))
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                # One task per line: requests from a single connection
                # can overlap inside the batch window and coalesce.
                # Responses may come back out of order; clients match
                # on the echoed id.
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, TimeoutError):
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        payload, trace = await self._process(line)
        if trace is None:
            await self._send(writer, write_lock, payload)
            return
        write_wall = time.time()
        write_t0 = time.perf_counter()
        await self._send(writer, write_lock, payload)
        trace.add("serve.write", write_wall,
                  time.perf_counter() - write_t0, bytes=len(payload))
        self._finish_trace(trace)

    def _finish_trace(self, trace: TraceContext) -> None:
        """Close the request's span tree; tail-sample slow/failed ones."""
        root = trace.finish()
        latency_ms = root.duration_s * 1e3
        root.attrs.setdefault("status", "ok")
        root.attrs["latency_ms"] = round(latency_ms, 3)
        if root.attrs["status"] != "ok" \
                or latency_ms >= self.config.slo_latency_ms:
            self._sampled_traces.append(root)

    @property
    def sampled_traces(self) -> list[Span]:
        """Tail-sampled request span trees (slow or failed), bounded."""
        return list(self._sampled_traces)

    def counter_timeline(self) -> list[tuple[float, dict]]:
        """The observer task's ``(wall, counters)`` series, for the
        Perfetto counter tracks a session export draws."""
        return list(self._counter_timeline)

    async def _send(self, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock, payload: bytes) -> None:
        """Write one response; drop clients that stall their reads."""
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(payload)
            try:
                await asyncio.wait_for(
                    writer.drain(), self.config.write_timeout_s)
            except (TimeoutError, asyncio.TimeoutError, ConnectionError):
                self.live.slow_client_disconnects.add()
                writer.transport.abort()

    async def _process(self, line: bytes
                       ) -> tuple[bytes, TraceContext | None]:
        """Parse, classify, encode: every outcome becomes a response.

        Returns ``(payload, trace)``; the trace (classify requests
        only) is finished by the caller *after* the response write, so
        the sampled span tree covers the full server-side lifetime.
        Admin ops answer before admission -- a stats scrape is never
        rejected and never waits on a batch.  A request refused before
        :meth:`_classify` is counted here; ``_classify`` counts the
        rest.
        """
        t0 = time.perf_counter()
        req_id = None
        trace = None
        classifying = False
        try:
            request = parse_request(line)
            req_id = request.req_id
            if request.op != "classify":
                return self._admin_response(request), None
            trace = request.trace
            model = self.registry.get(request.model)
            try:
                qubit = model.resolve_qubit(request.iq, request.qubit)
            except ValidationError as exc:
                raise ServeProtocolError(str(exc), field="qubit") from exc
            classifying = True
            labels, batch_size = await self._classify(
                request, model, qubit, t0)
        except Exception as exc:  # noqa: BLE001 - wire boundary
            if not isinstance(exc, (ServeError, ServeProtocolError)):
                exc = ServeError(
                    f"internal error: {type(exc).__name__}: {exc}")
            if not classifying:
                getattr(self.live, _REFUSALS.get(
                    exc.code, "internal_errors")).add()
            if trace is not None:
                trace.set(status="error", code=exc.code)
            return error_response(req_id, exc), trace
        trace.set(status="ok", code=200)
        return ok_response(
            req_id, labels, model_digest=model.model_digest,
            batch_size=batch_size,
            queue_ms=(time.perf_counter() - t0) * 1e3), trace

    async def _classify(self, request: ParsedRequest, model: Classifier,
                        qubit: np.ndarray, t0: float
                        ) -> tuple[np.ndarray, int]:
        """Admission, deadline, micro-batcher; count the outcome once."""
        outcome = "internal_errors"
        try:
            if self._inflight >= self.config.max_queue:
                outcome = "rejected"
                raise ServeOverloadError(
                    f"queue full ({self.config.max_queue} requests in "
                    f"flight); retry later")
            self._inflight += 1
            self.live.queue_depth.observe(self._inflight)
            try:
                deadline_ms = request.deadline_ms \
                    or self.config.default_deadline_ms
                deadline_s = t0 + deadline_ms / 1e3
                remaining = deadline_s - time.perf_counter()
                if remaining <= 0:
                    raise DeadlineError(
                        f"deadline of {deadline_ms:g} ms expired before "
                        f"classification started")
                try:
                    result = await asyncio.wait_for(self._batcher.submit(
                        request.model, model, request.iq, qubit,
                        deadline_s, trace=request.trace), remaining)
                except (TimeoutError, asyncio.TimeoutError):
                    raise DeadlineError(
                        f"deadline of {deadline_ms:g} ms expired in the "
                        f"batch queue") from None
            finally:
                self._inflight -= 1
            outcome = "requests"
            return result
        except DeadlineError:
            outcome = "deadline_expired"
            raise
        except asyncio.CancelledError:
            outcome = None  # server shutdown: no response, no outcome
            raise
        finally:
            if outcome is not None:
                self._count(outcome, request.n_shots, t0)

    def _count(self, outcome: str, n_shots: int, t0: float) -> None:
        """Record one classify outcome, its latency and SLO miss."""
        live = self.live
        now = time.time()
        latency_ms = (time.perf_counter() - t0) * 1e3
        getattr(live, outcome).add(now=now)
        if outcome == "requests":
            live.shots.add(n_shots, now=now)
        live.latency_ms.observe(latency_ms, now)
        if latency_ms > self.config.slo_latency_ms:
            live.slo_latency_violations.add(now=now)

    # ------------------------------------------------------------------ #
    # In-band introspection + the observer task
    # ------------------------------------------------------------------ #
    def _admin_response(self, request: ParsedRequest) -> bytes:
        """Answer an admin op (only ``stats`` exists today)."""
        self.live.stats_scrapes.add()
        return stats_response(request.req_id, self.stats_snapshot())

    def stats_snapshot(self) -> dict:
        """The live stats document (also the ``repro top`` payload).

        Built in one pass on the event loop thread, so the counters,
        windowed metrics and SLO grades describe the same instant --
        a scrape can never see a torn half-updated view.
        """
        now = time.time()
        counters = self.live.counters()
        return {
            "endpoint": f"{self.host}:{self.port}",
            "uptime_s": round(
                max(time.perf_counter() - self._started_s, 0.0), 3),
            "inflight": self._inflight,
            "max_queue": self.config.max_queue,
            "models": self.registry.digests(),
            "counters": counters,
            "window": self.live.snapshot(now),
            "slo": self._slo_report(counters).to_dict(),
            "health": {
                **self.live.health(now),
                "sampled_traces": len(self._sampled_traces),
            },
        }

    def _slo_report(self, counters: dict[str, int]) -> slo_mod.SLOReport:
        """Grade the session-cumulative counts against the objectives."""
        def total(names: tuple[str, ...]) -> int:
            return sum(counters[f"serve.{name}"] for name in names)

        return slo_mod.evaluate(
            self.config.slo_latency_ms,
            total=total(LiveMetrics.TRAFFIC),
            latency_violations=counters["serve.slo_latency_violations"],
            errors=total(LiveMetrics.FAILURES))

    async def _observe_loop(self, interval_s: float = 0.25) -> None:
        """Periodic self-observation on the serving loop itself.

        Each tick records how late the loop woke (scheduler lag -- the
        earliest overload signal) and appends one point to the bounded
        counter timeline the Perfetto export draws as counter tracks.
        """
        loop = asyncio.get_running_loop()
        while True:
            expected = loop.time() + interval_s
            await asyncio.sleep(interval_s)
            now = time.time()
            self.live.record_loop_lag(loop.time() - expected, now)
            self._counter_timeline.append((now, {
                "inflight": self._inflight,
                "requests_per_sec": round(self.live.requests.rate(now), 1),
                "latency_p99_ms": round(
                    self.live.latency_ms.percentile(99, now), 3),
            }))

    # ------------------------------------------------------------------ #
    # Session provenance
    # ------------------------------------------------------------------ #
    def session_record(self) -> RunRecord:
        """One ``kind="serve"`` ledger line summarizing the session.

        Beyond the counters and latency quantiles, the record carries
        the session's queue-depth and fused-batch-size histogram
        summaries and the SLO burn-rate report -- its verdict rides in
        the ``fidelity`` slot, so ``repro report --strict`` gates on
        serving sessions exactly as it gates on experiment fidelity.
        """
        wall_s = max(time.perf_counter() - self._started_s, 1e-9)
        live = self.live
        lat = live.latency_ms
        counters = live.counters()
        metrics: dict[str, float] = dict(counters)
        metrics["serve.batches"] = live.batch_requests.count
        metrics["serve.shots_per_sec"] = \
            round(counters["serve.shots"] / wall_s, 1)
        if lat.count:
            metrics["serve.latency_p50_ms"] = \
                round(lat.cumulative_percentile(50), 3)
            metrics["serve.latency_p99_ms"] = \
                round(lat.cumulative_percentile(99), 3)
        metrics.update(live.record_summaries())
        slo_report = self._slo_report(counters)
        metrics.update(slo_report.metrics())
        spec = {"latency_ms": self.config.slo_latency_ms,
                "error_budget": slo_mod.ERROR_BUDGET}
        return RunRecord(
            experiment="serve",
            kind="serve",
            start_ts=self._start_ts,
            wall_s=round(wall_s, 3),
            telemetry={"models": self.registry.digests(),
                       "config": {
                           "batch_window_ms": self.config.batch_window_ms,
                           "max_batch_shots": MAX_BATCH_SHOTS,
                           "max_queue": self.config.max_queue,
                       },
                       "slo": {"spec": spec, **slo_report.to_dict()},
                       "health": live.health()},
            metrics=metrics,
            fidelity={"kind": "slo", **slo_report.to_dict()},
        )


class ServerThread:
    """A :class:`ClassifierServer` on a private loop in a daemon thread.

    The harness tests, benchmarks and assault scenarios use: enter the
    context, read ``host``/``port``, hammer it from sync clients, exit
    and receive the session :class:`~repro.provenance.RunRecord`.
    """

    def __init__(self, registry: ModelRegistry,
                 config: ServeConfig | None = None,
                 ledger: RunLedger | None = None):
        self.server = ClassifierServer(registry, config, ledger)
        self.record: RunRecord | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.server.start())
            except BaseException as exc:  # pragma: no cover - bind errors
                self._failure = exc
                self._ready.set()
                return
            self._ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise ServeError(
                f"server failed to start: {self._failure}") \
                from self._failure
        return self

    def stop(self) -> RunRecord:
        if self._loop is None:
            raise ServeError("server thread was never started")
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop)
        self.record = future.result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        return self.record

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
