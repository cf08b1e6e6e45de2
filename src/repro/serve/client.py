"""Synchronous client for the classification service.

A thin blocking wrapper over one socket speaking the line/JSON protocol
of :mod:`repro.serve.protocol`.  Two call styles:

``classify(model, iq)``
    One request, one response, labels as a numpy array -- error
    responses re-raised as the same typed exceptions the server threw
    (:class:`~repro.errors.ServeOverloadError` on 429,
    :class:`~repro.errors.DeadlineError` on 408,
    :class:`~repro.errors.ServeProtocolError` on 400/404).
``pipeline(requests)``
    Fire many requests down the connection before reading anything,
    then collect every response.  This is how a single connection
    exercises the micro-batcher: overlapping requests coalesce into
    one vectorized predict.  Responses may arrive out of order; they
    are matched back to requests by the echoed ``id``.
"""

from __future__ import annotations

import itertools
import socket

import numpy as np

from repro.errors import ServeError
from repro.serve.protocol import (
    encode_op_request,
    encode_request,
    parse_response,
    raise_for_response,
)

__all__ = ["ServeClient"]


class ServeClient:
    """Blocking line/JSON client (one socket, context-managed)."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0):
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout_s)
        except OSError as exc:
            raise ServeError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    def request(self, model: str, iq, qubit=None,
                deadline_ms: float | None = None) -> dict:
        """One raw request/response round trip (no error raising)."""
        req_id = next(self._ids)
        self._file.write(encode_request(
            req_id, model, iq, qubit=qubit, deadline_ms=deadline_ms))
        self._file.flush()
        return self._read_response()

    def classify(self, model: str, iq, qubit=None,
                 deadline_ms: float | None = None) -> np.ndarray:
        """Labels for one batch; typed exception on any error code."""
        doc = raise_for_response(self.request(
            model, iq, qubit=qubit, deadline_ms=deadline_ms))
        return np.asarray(doc["labels"], dtype=int)

    def stats(self) -> dict:
        """The server's stats snapshot (``{"op": "stats"}``).

        In-band introspection: the scrape shares the socket and
        protocol with classification traffic but skips admission on
        the server, so it answers even when the queue is full.
        """
        req_id = next(self._ids)
        self._file.write(encode_op_request("stats", req_id=req_id))
        self._file.flush()
        doc = raise_for_response(self._read_response())
        return doc.get("stats", {})

    def pipeline(self, requests: list[dict]) -> list[dict]:
        """Send every request, then read every response (in request
        order).  Each request dict: ``{"model", "iq"}`` plus optional
        ``"qubit"`` / ``"deadline_ms"``."""
        ids = []
        for req in requests:
            req_id = next(self._ids)
            ids.append(req_id)
            self._file.write(encode_request(
                req_id, req["model"], req["iq"],
                qubit=req.get("qubit"),
                deadline_ms=req.get("deadline_ms")))
        self._file.flush()
        by_id = {}
        for _ in ids:
            doc = self._read_response()
            by_id[doc.get("id")] = doc
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise ServeError(
                f"server answered {len(by_id)} of {len(ids)} pipelined "
                f"requests (missing ids {missing[:5]}...)")
        return [by_id[i] for i in ids]

    # ------------------------------------------------------------------ #
    def _read_response(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ServeError("server closed the connection")
        return parse_response(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
