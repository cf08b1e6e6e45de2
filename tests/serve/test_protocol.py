"""Wire-protocol contract: typed rejection of malformed requests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import (
    DeadlineError,
    ServeError,
    ServeOverloadError,
    ServeProtocolError,
)
from repro.serve.protocol import (
    encode_request,
    error_response,
    ok_response,
    parse_request,
    parse_response,
    raise_for_response,
)


def test_round_trip():
    iq = [[0.25, -1.5], [0.0, 0.75]]
    req = parse_request(encode_request(7, "knn", iq, qubit=[0, 1],
                                       deadline_ms=120.0))
    assert req.req_id == 7
    assert req.model == "knn"
    assert req.n_shots == 2
    assert np.allclose(req.iq, iq)
    assert req.qubit == [0, 1]
    assert req.deadline_ms == 120.0


def test_optional_fields_default():
    req = parse_request(encode_request(None, "hdc", [[0.0, 0.0]]))
    assert req.req_id is None
    assert req.qubit is None
    assert req.deadline_ms is None


@pytest.mark.parametrize("line, field", [
    (b"not json\n", ""),
    (b"[1, 2]\n", ""),
    (b'{"iq": [[0, 0]]}\n', "model"),
    (b'{"model": "", "iq": [[0, 0]]}\n', "model"),
    (b'{"model": 3, "iq": [[0, 0]]}\n', "model"),
    (b'{"model": "knn"}\n', "iq"),
    (b'{"model": "knn", "iq": []}\n', "iq"),
    (b'{"model": "knn", "iq": [[1, 2, 3]]}\n', "iq"),
    (b'{"model": "knn", "iq": [[1, 2], [3]]}\n', "iq"),
    (b'{"model": "knn", "iq": [[NaN, 0]]}\n', "iq"),
    (b'{"model": "knn", "iq": [[Infinity, 0]]}\n', "iq"),
    (b'{"model": "knn", "iq": [["a", "b"]]}\n', "iq"),
    (b'{"model": "knn", "iq": [[0, 0]], "qubit": 3}\n', "qubit"),
    (b'{"model": "knn", "iq": [[0, 0]], "deadline_ms": 0}\n',
     "deadline_ms"),
    (b'{"model": "knn", "iq": [[0, 0]], "deadline_ms": -5}\n',
     "deadline_ms"),
    (b'{"model": "knn", "iq": [[0, 0]], "deadline_ms": true}\n',
     "deadline_ms"),
    (b'{"id": {"a": 1}, "model": "knn", "iq": [[0, 0]]}\n', "id"),
    (b'{"op": "reboot"}\n', "op"),
    (b'{"op": 3}\n', "op"),
], ids=lambda v: repr(v)[:40])
def test_malformed_requests_name_the_field(line, field):
    with pytest.raises(ServeProtocolError) as err:
        parse_request(line)
    assert err.value.code == 400
    assert err.value.field == field
    # ServeProtocolError stays a ValueError (the ValidationError base).
    assert isinstance(err.value, ValueError)


def test_stats_op_round_trip():
    from repro.serve.protocol import encode_op_request, stats_response

    req = parse_request(encode_op_request("stats", req_id=11))
    assert req.op == "stats"
    assert req.req_id == 11
    assert req.model is None
    assert req.n_shots == 0
    doc = parse_response(stats_response(11, {"counters": {"x": 1}}))
    assert doc["ok"] is True
    assert doc["op"] == "stats"
    assert doc["stats"] == {"counters": {"x": 1}}


def test_classify_request_fields():
    req = parse_request(encode_request(1, "knn", [[0.0, 0.0]],
                                       deadline_ms=50))
    assert req.op == "classify"
    assert req.req_id == 1
    assert req.model == "knn"
    assert req.n_shots == 1
    assert req.qubit is None
    assert req.deadline_ms == 50.0


def test_oversized_line_rejected():
    from repro.serve.protocol import MAX_LINE_BYTES

    with pytest.raises(ServeProtocolError, match="exceeds"):
        parse_request(b"x" * (MAX_LINE_BYTES + 1))


def test_ok_response_shape():
    doc = parse_response(ok_response(3, np.array([0, 1, 1]),
                                     model_digest="abcd",
                                     batch_size=4, queue_ms=1.25))
    assert doc == {"id": 3, "ok": True, "labels": [0, 1, 1],
                   "model_digest": "abcd", "batch_size": 4,
                   "queue_ms": 1.25}
    assert raise_for_response(doc) is doc


@pytest.mark.parametrize("exc, code, name, exc_type", [
    (ServeOverloadError("full"), 429, "overloaded", ServeOverloadError),
    (DeadlineError("late"), 408, "deadline", DeadlineError),
    (ServeProtocolError("bad", field="iq"), 400, "bad_request",
     ServeProtocolError),
    (ServeError("boom"), 500, "internal", ServeError),
])
def test_error_responses_round_trip_typed(exc, code, name, exc_type):
    doc = parse_response(error_response(9, exc))
    assert doc["ok"] is False
    assert doc["code"] == code
    assert doc["error"] == name
    with pytest.raises(exc_type):
        raise_for_response(doc)


def test_unknown_model_maps_to_protocol_error():
    from repro.serve.models import ModelRegistry

    with pytest.raises(ServeProtocolError) as err:
        ModelRegistry({}).get("nope")
    assert err.value.code == 404
    assert err.value.field == "model"
    doc = parse_response(error_response(1, err.value))
    assert doc["code"] == 404
    assert doc["error"] == "unknown_model"


def test_parse_response_rejects_garbage():
    with pytest.raises(ServeError):
        parse_response(b"not json\n")
    with pytest.raises(ServeError):
        parse_response(json.dumps({"no": "ok-key"}))
