"""Unit tests for the daemon's wire protocol (transport-free)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.server.protocol import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)

from tests.helpers import INT_DIGIT_LIMIT, OVERLONG_INT_PING

PROBLEM = {"schema": {}, "facts": []}  # shape-checked only at this layer


def test_parse_every_control_op_and_echoes_id():
    for op in ("ping", "stats", "drain"):
        request = parse_request(json.dumps({"op": op, "id": 7}))
        assert request.op == op
        assert request.request_id == 7
        assert request.payload == {}


def test_parse_check_keeps_payload_fields():
    request = parse_request(
        json.dumps(
            {
                "op": "check",
                "id": "r1",
                "problem": PROBLEM,
                "candidate": [0, 2],
                "semantics": "pareto",
                "budget": 1000,
            }
        )
    )
    assert request.op == "check"
    assert request.request_id == "r1"
    assert request.payload["candidate"] == [0, 2]
    assert request.payload["semantics"] == "pareto"
    assert "id" not in request.payload and "op" not in request.payload


def test_id_is_optional():
    assert parse_request('{"op": "ping"}').request_id is None


@pytest.mark.parametrize(
    "line",
    [
        "not json at all",
        "[1, 2, 3]",  # not an object
        '{"op": "reticulate"}',  # unknown op
        '{"op": "ping", "extra": 1}',  # unknown field
        '{"op": "check", "candidate": [0]}',  # missing problem
        '{"op": "check", "problem": {}, "candidate": "0"}',  # not a list
        '{"op": "check", "problem": {}, "candidate": [0], "budjet": 9}',
        '{"op": "check", "problem": {}, "candidate": [0], "budget": true}',
        '{"op": "check", "problem": {}, "candidate": [0], "timeout": "5"}',
        '{"op": "check", "problem": {}, "candidate": [0], "job_id": 3}',
        '{"op": "classify"}',  # neither schema nor spec
        '{"op": "classify", "schema": {}, "schema_spec": "R:2; 1 -> 2"}',
        '{"op": "classify", "schema_spec": 42}',
        # nested deeper than the JSON decoder recurses
        '{"op": "ping", "id": ' + "[" * 1000 + "]" * 1000 + "}",
        pytest.param(
            OVERLONG_INT_PING,
            marks=pytest.mark.skipif(
                not INT_DIGIT_LIMIT, reason="no int-to-str digit limit"
            ),
            id="overlong-int",
        ),
    ],
)
def test_malformed_requests_raise_protocol_error(line):
    with pytest.raises(ProtocolError):
        parse_request(line)


_KEYS = st.sampled_from(
    ("op", "id", "problem", "candidate", "query", "schema", "schema_spec",
     "semantics", "method", "timeout", "budget", "seed", "job_id",
     "max_repairs")
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(OPS),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(_KEYS | st.text(max_size=4), children, max_size=5),
    max_leaves=16,
)


@st.composite
def _request_lines(draw):
    """Raw text, JSON documents shaped like requests, deep nests and
    integer literals too long to convert."""
    kind = draw(st.sampled_from(("text", "document", "nested", "digits")))
    if kind == "text":
        return draw(st.text(max_size=40))
    if kind == "digits":
        digits = draw(st.integers(min_value=1, max_value=6000))
        return '{"op": "ping", "id": ' + "7" * digits + "}"
    document = draw(st.dictionaries(_KEYS, _JSON, max_size=6))
    if draw(st.booleans()):
        document["op"] = draw(st.sampled_from(OPS))
    line = json.dumps(document)
    if kind == "nested":
        depth = draw(st.integers(min_value=500, max_value=5000))
        line = '{"op": "ping", "id": ' + "[" * depth + line + "]" * depth + "}"
    return line


@settings(max_examples=300, deadline=None)
@given(_request_lines())
def test_parse_request_raises_nothing_but_protocol_error(line):
    try:
        parse_request(line)
    except ProtocolError:
        pass


def test_classify_accepts_exactly_one_source():
    by_spec = parse_request(
        '{"op": "classify", "schema_spec": "R:2; 1 -> 2"}'
    )
    assert by_spec.payload == {"schema_spec": "R:2; 1 -> 2"}
    by_document = parse_request('{"op": "classify", "schema": {"x": 1}}')
    assert by_document.payload == {"schema": {"x": 1}}


def test_ok_response_envelope():
    response = ok_response("abc", pong=True)
    assert response == {"id": "abc", "ok": True, "pong": True}


def test_error_response_envelope_and_code_vocabulary():
    for code in ERROR_CODES:
        response = error_response(None, code, "boom")
        assert response["ok"] is False
        assert response["error"] == {"code": code, "message": "boom"}
    with pytest.raises(ProtocolError):
        error_response(None, "made-up-code", "boom")


def test_encode_response_is_one_terminated_utf8_line():
    payload = encode_response(ok_response(1, protocol=PROTOCOL_VERSION))
    assert payload.endswith(b"\n")
    assert payload.count(b"\n") == 1
    decoded = json.loads(payload)
    assert decoded == {"id": 1, "ok": True, "protocol": PROTOCOL_VERSION}


def test_op_vocabulary_is_stable():
    # The client, daemon, and docs all quote these; renames are wire
    # breaks and must bump PROTOCOL_VERSION.
    assert OPS == ("check", "repair", "count", "classify", "ping", "stats", "drain")
    assert PROTOCOL_VERSION == 1
