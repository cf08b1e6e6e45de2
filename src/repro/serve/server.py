"""The asyncio classification server: admission, deadlines, counts.

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

Every count lives in one place, the server's plain integer tallies
(:meth:`ClassifierServer.counters`) plus one cumulative latency
:class:`~repro.telemetry.Histogram`: they answer the in-band
``{"op": "stats"}`` snapshot (answered *before* admission, so a scrape
is never rejected or queued) and fill the ``kind="serve"`` RunRecord
each session appends to the provenance ledger (with latency quantiles,
throughput and the digests of the models it served).
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
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
from repro.telemetry import Histogram, iso_ts

__all__ = ["ClassifierServer", "ServeConfig", "ServerThread"]

#: The session counts, reported as ``serve.<name>`` in snapshot order.
COUNTERS = ("connections", "requests", "shots", "rejected",
            "deadline_expired", "bad_requests", "unknown_model",
            "slow_client_disconnects", "internal_errors", "stats_scrapes")

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
    slow-client scenario in ``tests/assault`` sets this so a stalled
    reader trips the drain timeout deterministically instead of hiding
    behind megabytes of kernel buffer."""

    def __post_init__(self):
        for name in ("batch_window_ms", "max_queue", "default_deadline_ms",
                     "write_timeout_s"):
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
        self._counts = dict.fromkeys(COUNTERS, 0)
        # Latencies in ms: 1 us .. 1000 s covers a stalled deadline.
        self.latency_ms = Histogram(lo=1e-3, hi=1e6)
        self._inflight = 0
        self._started_s = 0.0
        self._start_ts = ""
        self._server: asyncio.AbstractServer | None = None
        self._batcher: MicroBatcher | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        cfg = self.config
        self._batcher = MicroBatcher(window_s=cfg.batch_window_ms / 1e3)
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port,
            limit=MAX_LINE_BYTES)
        self.host, self.port = \
            self._server.sockets[0].getsockname()[:2]
        self._started_s = time.perf_counter()
        self._start_ts = iso_ts(time.time())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> RunRecord:
        """Close the socket, flush the session record to the ledger."""
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
        self._counts["connections"] += 1
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
                    self._counts["bad_requests"] += 1
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
        await self._send(writer, write_lock, await self._process(line))

    def counters(self) -> dict[str, int]:
        """Session totals, ``serve.<name>`` -> count."""
        return {f"serve.{name}": n for name, n in self._counts.items()}

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
                self._counts["slow_client_disconnects"] += 1
                writer.transport.abort()

    async def _process(self, line: bytes) -> bytes:
        """Parse, classify, encode: every outcome becomes a response.

        Admin ops answer before admission -- a stats scrape is never
        rejected and never waits on a batch.  A request refused before
        :meth:`_classify` is counted here; ``_classify`` counts the
        rest.
        """
        t0 = time.perf_counter()
        req_id = None
        classifying = False
        try:
            request = parse_request(line)
            req_id = request.req_id
            if request.op != "classify":
                return self._admin_response(request)
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
                self._counts[_REFUSALS.get(exc.code, "internal_errors")] += 1
            return error_response(req_id, exc)
        return ok_response(
            req_id, labels, model_digest=model.model_digest,
            batch_size=batch_size,
            queue_ms=(time.perf_counter() - t0) * 1e3)

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
                        deadline_s), remaining)
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
                self._counts[outcome] += 1
                if outcome == "requests":
                    self._counts["shots"] += request.n_shots
                self.latency_ms.observe((time.perf_counter() - t0) * 1e3)

    # ------------------------------------------------------------------ #
    # In-band introspection and session provenance
    # ------------------------------------------------------------------ #
    def _admin_response(self, request: ParsedRequest) -> bytes:
        """Answer an admin op (only ``stats`` exists today)."""
        self._counts["stats_scrapes"] += 1
        return stats_response(request.req_id, self.stats_snapshot())

    def stats_snapshot(self) -> dict:
        """The ``{"op": "stats"}`` document, built on the event loop
        thread, so every count in it describes the same instant."""
        return {
            "endpoint": f"{self.host}:{self.port}",
            "uptime_s": round(
                max(time.perf_counter() - self._started_s, 0.0), 3),
            "inflight": self._inflight,
            "max_queue": self.config.max_queue,
            "models": self.registry.digests(),
            "counters": self.counters(),
        }

    def session_record(self) -> RunRecord:
        """One ``kind="serve"`` ledger line summarizing the session."""
        wall_s = max(time.perf_counter() - self._started_s, 1e-9)
        metrics: dict[str, float] = self.counters()
        metrics["serve.batches"] = \
            self._batcher.batches if self._batcher is not None else 0
        metrics["serve.shots_per_sec"] = \
            round(self._counts["shots"] / wall_s, 1)
        if self.latency_ms.count:
            metrics["serve.latency_p50_ms"] = \
                round(self.latency_ms.percentile(50), 3)
            metrics["serve.latency_p99_ms"] = \
                round(self.latency_ms.percentile(99), 3)
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
                       }},
            metrics=metrics,
        )


class ServerThread:
    """A :class:`ClassifierServer` on a private loop in a daemon thread.

    The harness tests, benchmarks and ``tests/assault`` scenarios use:
    enter the context, read ``host``/``port``, hammer it from sync
    clients, exit and receive the session
    :class:`~repro.provenance.RunRecord`.
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
