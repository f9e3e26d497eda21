"""The daemon's wire protocol: newline-delimited JSON requests.

One connection carries a stream of requests, one JSON object per line;
the daemon answers with one JSON object per line.  Requests may be
pipelined — a client can send several ``check`` lines before reading any
response — so every response echoes the request's ``id`` and responses
to slow checks may arrive after responses to later, faster requests.

Request shapes (``id`` is optional everywhere and echoed verbatim)::

    {"op": "ping", "id": 1}
    {"op": "stats"}
    {"op": "drain"}
    {"op": "classify", "schema_spec": "R:3; 1 -> 2; 2 -> 3"}
    {"op": "classify", "schema": {...repro.io schema document...}}
    {"op": "check", "id": "r1",
     "problem": {...repro.io prioritizing document...},
     "candidate": [0, 2],              // indices or fact objects, as in
                                       // repro.service.batch_io
     "semantics": "global",            // optional; also: method,
     "timeout": 5.0, "budget": 100000, // job_id
    }
    {"op": "repair", "id": "r2",       // construct an optimal repair
     "problem": {...},
     "semantics": "pareto",            // optional; also: seed, timeout,
     "budget": 1000, "job_id": "j7",   // budget
    }
    {"op": "count", "id": "r3",        // count entailing repairs
     "problem": {...},
     "query": {"head": [], "body": [{"relation": "R",
               "terms": [{"const": 1}, {"var": "x"}]}]},
     "semantics": "global",            // optional; also: job_id,
     "max_repairs": 10000,             // max_repairs
    }

Success responses are ``{"id": ..., "ok": true, ...payload}``; failures
are ``{"id": ..., "ok": false, "error": {"code": ..., "message": ...}}``
with codes ``bad-request`` (malformed request — the connection stays
up), ``overloaded`` (the admission controller rejected the job;
retry against a less busy server), ``draining`` (the daemon is shutting
down and accepts no new work), ``internal``, and ``unavailable`` (the
fleet front door could not place the job on any live worker — the
owning worker died mid-request and its at-most-once re-dispatch budget
is spent, or every candidate worker is down; safe to retry once the
fleet recovers).

This module is transport-free: it parses and renders single lines.
Framing (readline loops, length limits) lives in
:mod:`repro.server.daemon`; :class:`Request` is what a parsed line
becomes on its way to the service.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.exceptions import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "OPS",
    "POOLED_OPS",
    "ERROR_CODES",
    "Request",
    "parse_request",
    "encode_response",
    "ok_response",
    "error_response",
]

#: Bumped on any incompatible wire change; echoed by ``ping``.
PROTOCOL_VERSION = 1

#: Default cap on one request line.  A prioritizing-instance document
#: for a few thousand facts fits comfortably; an unbounded line would
#: let one client buffer the daemon into the ground.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Every operation the daemon understands.
OPS = ("check", "repair", "count", "classify", "ping", "stats", "drain")

#: The job-bearing operations: they run on a worker pool (and, in a
#: fleet, route by problem ownership); every other op is a cheap control
#: op answered inline.
POOLED_OPS = ("check", "repair", "count")

#: Every ``error.code`` a response may carry.
ERROR_CODES = (
    "bad-request",
    "overloaded",
    "draining",
    "internal",
    "unavailable",
)

#: ``check`` fields forwarded into the job beyond problem/candidate.
_CHECK_OPTIONAL_FIELDS = ("semantics", "method", "timeout", "budget", "job_id")

#: ``repair`` fields forwarded into the compute job beyond the problem.
_REPAIR_OPTIONAL_FIELDS = ("semantics", "seed", "timeout", "budget", "job_id")

#: ``count`` fields forwarded into the compute job beyond problem/query.
_COUNT_OPTIONAL_FIELDS = ("semantics", "max_repairs", "job_id")


@dataclass(frozen=True)
class Request:
    """One decoded request line.

    ``payload`` keeps only the fields relevant to ``op`` — unknown
    top-level keys are rejected up front so typos (``"budjet"``) fail
    loudly instead of silently running with defaults.
    """

    op: str
    request_id: Optional[Any] = None
    payload: Dict[str, Any] = field(default_factory=dict)


_ALLOWED_KEYS = {
    "check": {"op", "id", "problem", "candidate", *_CHECK_OPTIONAL_FIELDS},
    "repair": {"op", "id", "problem", *_REPAIR_OPTIONAL_FIELDS},
    "count": {"op", "id", "problem", "query", *_COUNT_OPTIONAL_FIELDS},
    "classify": {"op", "id", "schema", "schema_spec"},
    "ping": {"op", "id"},
    "stats": {"op", "id"},
    "drain": {"op", "id"},
}


def parse_request(line: str) -> Request:
    """Decode one request line into a :class:`Request`.

    Raises
    ------
    ProtocolError
        On unparseable JSON (including nesting too deep for the
        decoder and integer literals too long to convert), a
        non-object document, a missing or unknown ``op``, unknown
        top-level keys, or ill-typed required fields.  The message is
        safe to echo to the client.
    """
    try:
        document = json.loads(line)
    except RecursionError as exc:
        raise ProtocolError("request JSON is nested too deeply") from exc
    except ValueError as exc:
        # JSONDecodeError, or an integer literal longer than the
        # interpreter's int-to-str digit limit.
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(document).__name__}"
        )
    op = document.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    unknown = set(document) - _ALLOWED_KEYS[op]
    if unknown:
        raise ProtocolError(
            f"unknown field(s) for op {op!r}: {sorted(unknown)}"
        )
    request = Request(
        op=op,
        request_id=document.get("id"),
        payload={
            key: value
            for key, value in document.items()
            if key not in ("op", "id")
        },
    )
    _validate_payload(request)
    return request


def _validate_payload(request: Request) -> None:
    payload = request.payload
    if request.op == "check":
        problem = payload.get("problem")
        if not isinstance(problem, dict):
            raise ProtocolError(
                "check needs a 'problem' object (a repro.io prioritizing "
                "document)"
            )
        candidate = payload.get("candidate")
        if not isinstance(candidate, list):
            raise ProtocolError(
                "check needs a 'candidate' list (canonical fact indices "
                "or fact objects)"
            )
        for name, kinds in (
            ("semantics", str),
            ("method", str),
            ("job_id", str),
            ("timeout", (int, float)),
            ("budget", int),
        ):
            value = payload.get(name)
            if value is not None and (
                not isinstance(value, kinds) or isinstance(value, bool)
            ):
                raise ProtocolError(
                    f"check field {name!r} has the wrong type "
                    f"({type(value).__name__})"
                )
    elif request.op == "repair":
        problem = payload.get("problem")
        if not isinstance(problem, dict):
            raise ProtocolError(
                "repair needs a 'problem' object (a repro.io prioritizing "
                "document)"
            )
        for name, kinds in (
            ("semantics", str),
            ("job_id", str),
            ("seed", int),
            ("timeout", (int, float)),
            ("budget", int),
        ):
            value = payload.get(name)
            if value is not None and (
                not isinstance(value, kinds) or isinstance(value, bool)
            ):
                raise ProtocolError(
                    f"repair field {name!r} has the wrong type "
                    f"({type(value).__name__})"
                )
    elif request.op == "count":
        problem = payload.get("problem")
        if not isinstance(problem, dict):
            raise ProtocolError(
                "count needs a 'problem' object (a repro.io prioritizing "
                "document)"
            )
        query = payload.get("query")
        if not isinstance(query, dict):
            raise ProtocolError(
                "count needs a 'query' object (a conjunctive-query "
                "document with 'head' and 'body')"
            )
        for name, kinds in (
            ("semantics", str),
            ("job_id", str),
            ("max_repairs", int),
        ):
            value = payload.get(name)
            if value is not None and (
                not isinstance(value, kinds) or isinstance(value, bool)
            ):
                raise ProtocolError(
                    f"count field {name!r} has the wrong type "
                    f"({type(value).__name__})"
                )
    elif request.op == "classify":
        schema = payload.get("schema")
        spec = payload.get("schema_spec")
        if (schema is None) == (spec is None):
            raise ProtocolError(
                "classify needs exactly one of 'schema' (a repro.io "
                "schema document) or 'schema_spec' (CLI schema syntax)"
            )
        if schema is not None and not isinstance(schema, dict):
            raise ProtocolError("classify 'schema' must be an object")
        if spec is not None and not isinstance(spec, str):
            raise ProtocolError("classify 'schema_spec' must be a string")


def encode_response(response: Dict[str, Any]) -> bytes:
    """Render one response dict as a wire line (terminated, UTF-8).

    Keys are emitted in insertion order (``id``/``ok`` first, by
    construction in :func:`ok_response` / :func:`error_response`);
    the rendering is deterministic for a fixed response dict.
    """
    return (json.dumps(response, default=str) + "\n").encode("utf-8")


def ok_response(request_id: Optional[Any], **payload: Any) -> Dict[str, Any]:
    """A success response envelope echoing ``request_id``."""
    response: Dict[str, Any] = {"id": request_id, "ok": True}
    response.update(payload)
    return response


def error_response(
    request_id: Optional[Any], code: str, message: str
) -> Dict[str, Any]:
    """A failure response envelope with a structured error."""
    if code not in ERROR_CODES:
        raise ProtocolError(f"unknown error code {code!r}")
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
