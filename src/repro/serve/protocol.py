"""Wire protocol of the classification service: one JSON document per line.

The service speaks the simplest protocol that can carry batched I/Q
shots over a socket with zero third-party dependencies: every request
and every response is a single JSON object terminated by ``\\n``.

Request fields::

    {"id": 7,                    # echoed back verbatim (any JSON scalar)
     "model": "knn",             # registry name of the warm model
     "iq": [[0.1, -0.3], ...],   # (n, 2) I/Q pairs
     "qubit": [0, 1, ...],       # optional per-row qubit indices
     "deadline_ms": 250}         # optional per-request deadline

Response fields::

    {"id": 7, "ok": true, "labels": [0, 1, ...],
     "model_digest": "ab12...", "batch_size": 3, "queue_ms": 0.4}
    {"id": 7, "ok": false, "code": 429, "error": "overloaded",
     "message": "..."}

Error codes follow the HTTP idiom so a reader needs no legend: 400
malformed request, 404 unknown model, 408 deadline expired, 429
back-pressure rejection, 500 anything else.  :func:`parse_request`
rejects malformed input with a typed
:class:`~repro.errors.ServeProtocolError` *naming the offending field*
-- wrong-rank or empty ``iq`` arrays, NaN/inf I/Q, negative deadlines
-- before a single byte reaches a model.

One admin op rides the same protocol: ``{"op": "stats"}`` (no model,
no shots) asks the server for its session counts in-band; unknown ops
are a 400 naming the ``op`` field.
"""

from __future__ import annotations

import json

import numpy as np

from repro.classify import validate_points
from repro.errors import (
    DeadlineError,
    ServeError,
    ServeOverloadError,
    ServeProtocolError,
    ValidationError,
)

__all__ = [
    "ADMIN_OPS",
    "MAX_LINE_BYTES",
    "ParsedRequest",
    "encode_op_request",
    "encode_request",
    "error_response",
    "ok_response",
    "parse_request",
    "parse_response",
    "raise_for_response",
    "stats_response",
]

MAX_LINE_BYTES = 8 * 1024 * 1024
"""Per-line size cap (both directions): bounds a single request to
roughly 250k shots, which also bounds the server's per-line buffer."""

ADMIN_OPS = frozenset({"stats"})
"""In-band admin operations the server answers without touching the
classification pipeline (no admission, no batching, no model)."""

_ERROR_NAMES = {
    400: "bad_request",
    404: "unknown_model",
    408: "deadline",
    429: "overloaded",
    500: "internal",
}


class ParsedRequest:
    """One validated wire request, ready for the micro-batcher.

    ``iq`` is a float ``(n, 2)`` array; ``qubit`` is the *raw* optional
    index list -- the server resolves it against the target model
    (which knows its qubit count) before batching, so concatenating
    many requests into one ``predict`` call cannot change a label.

    ``op`` is ``"classify"`` for the normal path or an admin op from
    :data:`ADMIN_OPS` (then ``model``/``iq`` are ``None``).
    """

    __slots__ = ("deadline_ms", "iq", "model", "op", "qubit", "req_id")

    def __init__(self, req_id, model: str | None, iq, qubit,
                 deadline_ms: float | None, *, op: str = "classify"):
        self.req_id = req_id
        self.model = model
        self.iq = iq
        self.qubit = qubit
        self.deadline_ms = deadline_ms
        self.op = op

    @property
    def n_shots(self) -> int:
        return 0 if self.iq is None else len(self.iq)


def parse_request(line: bytes | str) -> ParsedRequest:
    """Parse + validate one request line (see module docstring).

    Malformed input raises :class:`~repro.errors.ServeProtocolError`
    naming the offending field.
    """
    if isinstance(line, (bytes, bytearray)):
        if len(line) > MAX_LINE_BYTES:
            raise ServeProtocolError(
                f"request line exceeds {MAX_LINE_BYTES} bytes", field="iq")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ServeProtocolError(
                f"request is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServeProtocolError(
            f"request is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ServeProtocolError(
            f"request must be a JSON object, got {type(doc).__name__}")

    req_id = doc.get("id")
    if isinstance(req_id, (dict, list)):
        raise ServeProtocolError(
            "id must be a JSON scalar", field="id")

    op = doc.get("op")
    if op is not None:
        if op not in ADMIN_OPS:
            raise ServeProtocolError(
                f"unknown op {op!r}; supported: "
                f"{', '.join(sorted(ADMIN_OPS))}", field="op")
        return ParsedRequest(req_id, None, None, None, None, op=op)

    model = doc.get("model")
    if not isinstance(model, str) or not model:
        raise ServeProtocolError(
            "model must be a non-empty string naming a registered "
            "classifier", field="model")

    if "iq" not in doc:
        raise ServeProtocolError("iq is required", field="iq")
    try:
        iq = validate_points("iq", doc["iq"])
    except ValidationError as exc:
        raise ServeProtocolError(str(exc), field="iq") from exc

    qubit = doc.get("qubit")
    if qubit is not None and not isinstance(qubit, list):
        raise ServeProtocolError(
            "qubit must be a list with one index per I/Q pair",
            field="qubit")

    deadline_ms = doc.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) \
                or isinstance(deadline_ms, bool) \
                or not np.isfinite(deadline_ms) or deadline_ms <= 0:
            raise ServeProtocolError(
                "deadline_ms must be a positive finite number",
                field="deadline_ms")
        deadline_ms = float(deadline_ms)

    return ParsedRequest(req_id, model, iq, qubit, deadline_ms)


def encode_request(req_id, model: str, iq, qubit=None,
                   deadline_ms: float | None = None) -> bytes:
    """Client-side encoder: one request as a newline-terminated line."""
    doc = {"id": req_id, "model": model,
           "iq": np.asarray(iq, dtype=float).tolist()}
    if qubit is not None:
        doc["qubit"] = np.asarray(qubit).astype(int).tolist()
    if deadline_ms is not None:
        doc["deadline_ms"] = float(deadline_ms)
    return (json.dumps(doc) + "\n").encode("utf-8")


def encode_op_request(op: str, req_id=None) -> bytes:
    """Client-side encoder for an admin op (e.g. ``stats``)."""
    return (json.dumps({"id": req_id, "op": op}) + "\n").encode("utf-8")


def stats_response(req_id, snapshot: dict) -> bytes:
    """Encode the stats snapshot an ``{"op": "stats"}`` gets."""
    doc = {"id": req_id, "ok": True, "op": "stats", "stats": snapshot}
    return (json.dumps(doc) + "\n").encode("utf-8")


def ok_response(req_id, labels: np.ndarray, *, model_digest: str = "",
                batch_size: int = 0, queue_ms: float = 0.0) -> bytes:
    """Encode a success response line."""
    doc = {
        "id": req_id,
        "ok": True,
        "labels": np.asarray(labels).astype(int).tolist(),
        "model_digest": model_digest,
        "batch_size": int(batch_size),
        "queue_ms": round(float(queue_ms), 3),
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def error_response(req_id, exc: Exception) -> bytes:
    """Encode an error response line from a (typed) exception."""
    code = int(getattr(exc, "code", 500))
    doc = {
        "id": req_id,
        "ok": False,
        "code": code,
        "error": _ERROR_NAMES.get(code, "internal"),
        "message": str(exc),
    }
    field = getattr(exc, "field", "")
    if field:
        doc["field"] = field
    return (json.dumps(doc) + "\n").encode("utf-8")


def parse_response(line: bytes | str) -> dict:
    """Client-side decoder; raises :class:`~repro.errors.ServeError`
    on a line that is not a valid response object."""
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8")
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServeError(
            f"malformed response from server: {exc}") from exc
    if not isinstance(doc, dict) or "ok" not in doc:
        raise ServeError(f"malformed response from server: {line!r}")
    return doc


def raise_for_response(doc: dict) -> dict:
    """Raise the typed exception an error response encodes; pass
    success responses through unchanged."""
    if doc.get("ok"):
        return doc
    code = int(doc.get("code", 500))
    message = doc.get("message", "request failed")
    if code == 429:
        raise ServeOverloadError(message)
    if code == 408:
        raise DeadlineError(message)
    if code in (400, 404):
        exc = ServeProtocolError(message, field=doc.get("field", ""))
        exc.code = code
        raise exc
    raise ServeError(message)
