"""Wire protocol: newline-delimited JSON over TCP.

One request or response per line, UTF-8 JSON, terminated by ``\\n``.
Requests and responses are matched by a client-chosen ``id``, so a
client may pipeline many requests over one connection and the server
may answer them out of order.

Request fields::

    {"id": 7, "endpoint": "runtime_point", "kwargs": {"density": 0.5}}

plus two optional fabric fields (``docs/api.md``): ``"priority"``
(``"high"`` / ``"normal"`` / ``"low"``, admission class on a fabric
front-end) and ``"auth"`` (HMAC signature, required by servers started
with a shared secret — :mod:`repro.fabric.auth`).

Response fields::

    {"id": 7, "ok": true, "value": 0.42, "cached": false,
     "coalesced": false, "shard": 3, "elapsed_ms": 12.5}

or, on failure::

    {"id": 7, "ok": false, "error": "unknown endpoint 'nope'"}

or, when a fabric front-end refuses the request under overload
(HTTP-503 semantics — retry later, the request was never started)::

    {"id": 7, "ok": false, "shed": true, "status": 503,
     "error": "shed: queue-depth (priority low)"}

Front-end responses forwarded from a worker also carry ``"worker"``,
the id of the worker that served the request.

JSON float serialization uses ``repr`` round-tripping, so a float value
computed by a worker arrives at the client bit-identical to a direct
in-process call — the property the serve-vs-direct parity tests pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

import numpy as np

#: Maximum accepted line length (1 request or response), in bytes.
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed wire message (bad JSON, missing fields, oversize)."""


def encode_message(payload: dict) -> bytes:
    """Serialize one message to its wire form (JSON + newline)."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one wire line into a message dict.

    Raises:
        ProtocolError: if the line is not UTF-8 JSON or not an object.
    """
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def to_jsonable(obj: object) -> Any:
    """Map an endpoint's return value onto plain JSON types.

    Dataclasses become ``{field: value}`` dicts, numpy arrays become
    nested lists, numpy scalars become their Python equivalents.  Used
    by the server before encoding a response and by parity checks when
    comparing a served value against a direct call.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    return obj


@dataclass(frozen=True)
class Response:
    """A decoded server response, as clients surface it.

    Attributes:
        id: echo of the request id.
        ok: whether the endpoint ran (or was served) successfully.
        value: the endpoint's JSON-mapped return value (``None`` on
            error).
        cached: the value came straight from the result cache, without
            touching a worker shard.
        coalesced: the request arrived while an identical one was
            already in flight and shared its computation (single-flight).
        shard: index of the worker shard that computed the value
            (``None`` for cache hits and errors).
        elapsed_ms: server-side time from request decode to response.
        error: human-readable failure description when ``ok`` is false.
        shed: a fabric front-end refused the request under overload;
            the request was never started, so retrying later is safe.
        status: numeric status accompanying a refusal (503 on shed).
        worker: id of the fabric worker that served a forwarded
            request (``None`` off-fabric).
    """

    id: int
    ok: bool
    value: Any = None
    cached: bool = False
    coalesced: bool = False
    shard: int | None = None
    elapsed_ms: float = 0.0
    error: str | None = None
    shed: bool = False
    status: int | None = None
    worker: str | None = None

    @classmethod
    def from_wire(cls, payload: dict) -> Response:
        """Build a :class:`Response` from a decoded wire message."""
        return cls(
            id=payload.get("id", -1),
            ok=bool(payload.get("ok")),
            value=payload.get("value"),
            cached=bool(payload.get("cached")),
            coalesced=bool(payload.get("coalesced")),
            shard=payload.get("shard"),
            elapsed_ms=float(payload.get("elapsed_ms", 0.0)),
            error=payload.get("error"),
            shed=bool(payload.get("shed")),
            status=payload.get("status"),
            worker=payload.get("worker"),
        )
