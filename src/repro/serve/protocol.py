"""Line-delimited JSON wire protocol of the legalization service.

One request or reply per line (NDJSON), UTF-8, no framing beyond the
newline — readable with ``nc`` and writable from any language without a
dependency.  Three message shapes travel the wire:

* **request** (client → server)::

      {"id": "7", "op": "eco", "session": "chipA",
       "params": {"kind": "move", "cell": "c12", "x": 4, "y": 2}}

* **response** (server → client, exactly one per request)::

      {"id": "7", "ok": true, "result": {"committed": true, ...}}
      {"id": "7", "ok": false,
       "error": {"code": "busy", "message": "..."}}

* **event** (server → client, zero or more *before* the response —
  progress streamed from the engine's checkpoint watermarks)::

      {"id": "7", "event": "progress",
       "data": {"stage": "shards", "done": 3, "total": 8}}

``id`` is an opaque client-chosen string echoed verbatim; responses to
pipelined requests may arrive out of submission order (per-session FIFO
is an execution guarantee, not a wire-ordering one), so clients match
on ``id``.

Encoding is deterministic (``sort_keys=True``): two servers answering
the same request byte-identically is part of the reproducibility story.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.serve.errors import ProtocolError

#: Bump on any incompatible change to the message shapes.
PROTOCOL_VERSION = 1

#: Longest request line the server reads, newline included (asyncio's
#: default stream limit); a longer one is answered with ``protocol``
#: and dropped.
MAX_LINE_BYTES = 2**16

#: Operations a request may name (validated at decode time so a typo'd
#: op fails fast with ``protocol`` rather than deep in dispatch).
KNOWN_OPS: tuple[str, ...] = (
    "ping",
    "sessions",
    "open",
    "generate",
    "legalize",
    "eco",
    "digest",
    "stats",
    "snapshot",
    "close",
    "shutdown",
)

#: Operations that require a ``session`` field.
SESSION_OPS: frozenset[str] = frozenset(
    {
        "open",
        "generate",
        "legalize",
        "eco",
        "digest",
        "stats",
        "snapshot",
        "close",
    }
)


@dataclass(slots=True)
class Request:
    """One decoded client request."""

    id: str
    op: str
    session: str | None = None
    params: dict[str, object] = field(default_factory=dict)

    def to_wire(self) -> dict[str, object]:
        wire: dict[str, object] = {"id": self.id, "op": self.op}
        if self.session is not None:
            wire["session"] = self.session
        if self.params:
            wire["params"] = self.params
        return wire


@dataclass(slots=True)
class Response:
    """The single reply to one request."""

    id: str
    ok: bool
    result: dict[str, object] = field(default_factory=dict)
    error_code: str | None = None
    error_message: str | None = None

    def to_wire(self) -> dict[str, object]:
        if self.ok:
            return {"id": self.id, "ok": True, "result": self.result}
        return {
            "id": self.id,
            "ok": False,
            "error": {
                "code": self.error_code or "internal",
                "message": self.error_message or "",
            },
        }


@dataclass(slots=True)
class Event:
    """A streamed notification tied to an in-flight request."""

    id: str
    kind: str
    data: dict[str, object] = field(default_factory=dict)

    def to_wire(self) -> dict[str, object]:
        return {"id": self.id, "event": self.kind, "data": self.data}


# ----------------------------------------------------------------------
# Encoding / decoding
# ----------------------------------------------------------------------
def encode(message: Request | Response | Event) -> bytes:
    """Serialize one message to its wire line (newline included)."""
    line = json.dumps(
        message.to_wire(), sort_keys=True, separators=(",", ":")
    )
    return line.encode("utf-8") + b"\n"


def decode_request(line: bytes | str) -> Request:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` on anything malformed; the server
    turns that into an error response (with a best-effort ``id``)
    instead of dropping the connection.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request line is not UTF-8: {exc}") from exc
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request line is not JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProtocolError("request must be a JSON object")
    rid = raw.get("id")
    if not isinstance(rid, str) or not rid:
        raise ProtocolError("request needs a non-empty string `id`")
    op = raw.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request needs a string `op`")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            f"unknown op {op!r} (known: {', '.join(KNOWN_OPS)})"
        )
    session = raw.get("session")
    if session is not None and not isinstance(session, str):
        raise ProtocolError("`session` must be a string when present")
    if op in SESSION_OPS and not session:
        raise ProtocolError(f"op {op!r} requires a `session`")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("`params` must be an object when present")
    for key in params:
        if not isinstance(key, str):  # pragma: no cover - json guarantees
            raise ProtocolError("param keys must be strings")
    return Request(id=rid, op=op, session=session, params=params)


def decode_reply(line: bytes | str) -> Response | Event:
    """Parse one server line (client side)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"server line is not JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("id"), str):
        raise ProtocolError("server line must be an object with an `id`")
    rid = raw["id"]
    if "event" in raw:
        kind = raw["event"]
        data = raw.get("data", {})
        if not isinstance(kind, str) or not isinstance(data, dict):
            raise ProtocolError("malformed event line")
        return Event(id=rid, kind=kind, data=data)
    ok = raw.get("ok")
    if ok is True:
        result = raw.get("result", {})
        if not isinstance(result, dict):
            raise ProtocolError("`result` must be an object")
        return Response(id=rid, ok=True, result=result)
    if ok is False:
        error = raw.get("error", {})
        if not isinstance(error, dict):
            raise ProtocolError("`error` must be an object")
        code = error.get("code")
        message = error.get("message")
        return Response(
            id=rid,
            ok=False,
            error_code=code if isinstance(code, str) else "internal",
            error_message=message if isinstance(message, str) else "",
        )
    raise ProtocolError("server line is neither a response nor an event")


# ----------------------------------------------------------------------
# Typed parameter access
# ----------------------------------------------------------------------
_MISSING = object()


def param_str(
    params: dict[str, object], key: str, default: str | object = _MISSING
) -> str:
    value = params.get(key, default)
    if value is _MISSING:
        raise ProtocolError(f"missing required string param {key!r}")
    if not isinstance(value, str):
        raise ProtocolError(f"param {key!r} must be a string")
    return value


def param_int(
    params: dict[str, object],
    key: str,
    default: int | object = _MISSING,
    *,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int:
    value = params.get(key, default)
    if value is _MISSING:
        raise ProtocolError(f"missing required integer param {key!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"param {key!r} must be an integer")
    _check_range(key, value, minimum, maximum)
    return value


def param_float(
    params: dict[str, object],
    key: str,
    default: float | object = _MISSING,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    value = params.get(key, default)
    if value is _MISSING:
        raise ProtocolError(f"missing required number param {key!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"param {key!r} must be a number")
    out = float(value)
    if out != out or out in (float("inf"), float("-inf")):
        raise ProtocolError(f"param {key!r} must be finite")
    _check_range(key, out, minimum, maximum)
    return out


def _check_range(
    key: str,
    value: float,
    minimum: float | None,
    maximum: float | None,
) -> None:
    """Range sanitizer shared by the numeric extractors: wire-supplied
    numbers configure the engine, so out-of-range values are protocol
    errors, not silent clamps."""
    if minimum is not None and value < minimum:
        raise ProtocolError(
            f"param {key!r} must be >= {minimum}, got {value}"
        )
    if maximum is not None and value > maximum:
        raise ProtocolError(
            f"param {key!r} must be <= {maximum}, got {value}"
        )


def param_bool(
    params: dict[str, object], key: str, default: bool | object = _MISSING
) -> bool:
    value = params.get(key, default)
    if value is _MISSING:
        raise ProtocolError(f"missing required boolean param {key!r}")
    if not isinstance(value, bool):
        raise ProtocolError(f"param {key!r} must be a boolean")
    return value


def param_opt_int(
    params: dict[str, object],
    key: str,
    *,
    minimum: int | None = None,
    maximum: int | None = None,
) -> int | None:
    if params.get(key) is None:
        return None
    return param_int(params, key, minimum=minimum, maximum=maximum)
