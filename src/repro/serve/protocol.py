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
import math
import re
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.serve.errors import EcoError, ProtocolError

#: Bump on any incompatible change to the message shapes.
PROTOCOL_VERSION = 1

#: Longest request line the server reads, newline included (asyncio's
#: default stream limit); a longer one is answered with ``protocol``
#: and dropped.
MAX_LINE_BYTES = 2**16

#: A session name is also the file stem of its snapshot bundle under
#: ``--snapshot-dir``, so it may not name a path: no separator, no
#: leading dot, no NUL, at most 64 characters.
SESSION_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


# ----------------------------------------------------------------------
# The request table: every param of every op, declared once
# ----------------------------------------------------------------------
#: Default of a param the request must carry.
REQUIRED = object()
#: Default of a param whose default depends on the design or the
#: server's config: the handler supplies it, and a checked dict leaves
#: the key out when the request does.
DERIVED = object()


@dataclass(frozen=True, slots=True)
class Param:
    """One request parameter: the Python type of its JSON value
    (``str``, ``int``, ``float`` for any number, ``bool``), its
    default, and for a number its finite ``[minimum, maximum]``.  A
    default of ``None`` makes the param optional, and JSON ``null``
    then means absent."""

    value_type: type
    default: object = REQUIRED
    minimum: float | None = None
    maximum: float | None = None


@dataclass(frozen=True, slots=True)
class Op:
    """One request op: whether it names a session, and its params."""

    session: bool
    params: Mapping[str, Param]


#: Per-request overrides of the server's legalizer config.
_CONFIG_PARAMS: dict[str, Param] = {
    "seed": Param(int, DERIVED, 0, 2**32 - 1),
    "rx": Param(float, DERIVED, 0.0, 1000.0),
    "ry": Param(float, DERIVED, 0.0, 1000.0),
    "relaxed": Param(bool, False),
}

#: Every op, in protocol order, with the params it takes.
OPS: dict[str, Op] = {
    "ping": Op(False, {}),
    "sessions": Op(False, {}),
    "open": Op(True, {"aux": Param(str), **_CONFIG_PARAMS}),
    "generate": Op(
        True,
        {
            "cells": Param(int, 400, 1, 200_000),
            "density": Param(float, 0.45, 0.01, 0.95),
            "double_fraction": Param(float, 0.1, 0.0, 1.0),
            **_CONFIG_PARAMS,
        },
    ),
    "legalize": Op(
        True,
        {
            "reset": Param(bool, False),
            "workers": Param(int, 1, 1, 64),
            "shards": Param(int, None, 1, 256),
            "quarantine": Param(bool, False),
        },
    ),
    # The params of the ECO's kind come on top (ECO_PARAMS).
    "eco": Op(
        True, {"kind": Param(str), "fault_at": Param(int, None, 1, 10**6)}
    ),
    "digest": Op(True, {}),
    "stats": Op(True, {}),
    "snapshot": Op(True, {"dir": Param(str, None)}),
    "close": Op(True, {"snapshot": Param(bool, False)}),
    "shutdown": Op(False, {}),
}

#: Move targets are sites and rows; the range lies far past any die, so
#: an off-die target rolls back instead of failing validation.
_COORD = Param(float, REQUIRED, -1e9, 1e9)

#: Every ECO kind, in protocol order, with the params it takes.
ECO_PARAMS: dict[str, dict[str, Param]] = {
    "move": {"cell": Param(str), "x": _COORD, "y": _COORD},
    "resize": {
        "cell": Param(str),
        "width": Param(int, REQUIRED, 1, 10_000),
        "height": Param(int, DERIVED, 1, 64),
    },
    "swap": {"cell": Param(str), "other": Param(str)},
    "buffer": {
        "net": Param(str),
        "width": Param(int, 1, 1, 10_000),
        "height": Param(int, 1, 1, 64),
        "split_at": Param(int, 1, 1, 10**6),
    },
    "improve": {
        "passes": Param(int, 1, 0, 10),
        "max_moves": Param(int, None, 0, 10**6),
    },
    "swap_pass": {"max_pairs": Param(int, None, 0, 10**6)},
}

#: Operations a request may name (validated at decode time so a typo'd
#: op fails fast with ``protocol`` rather than deep in dispatch).
KNOWN_OPS: tuple[str, ...] = tuple(OPS)

#: Operations that require a ``session`` field.
SESSION_OPS: frozenset[str] = frozenset(
    name for name, op in OPS.items() if op.session
)

#: ECO kinds a session understands, in protocol order.
ECO_KINDS: tuple[str, ...] = tuple(ECO_PARAMS)


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
    except (ValueError, RecursionError) as exc:
        # Deep nesting raises RecursionError and an over-long integer a
        # plain ValueError, neither of them a JSONDecodeError.
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
    if session is not None and not SESSION_NAME.fullmatch(session):
        raise ProtocolError(
            f"session name {session[:80]!r} must match "
            f"{SESSION_NAME.pattern}"
        )
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
# Checking params against the table
# ----------------------------------------------------------------------
_JSON_TYPE = {str: "string", int: "integer", float: "number", bool: "boolean"}


def check_params(op: str, params: Mapping[str, object]) -> dict[str, Any]:
    """Check the params of one *op* request against the table.

    Returns them with defaults filled in (a :data:`DERIVED` one is left
    out) and a ``float`` param's number as a ``float``.  Raises
    :class:`ProtocolError` on a missing required key, an unknown key, a
    wrong JSON type (a bool is not a number), a non-finite number or a
    value out of range, and :class:`EcoError` on an unknown ECO kind.
    """
    spec = OPS[op].params
    where = f"op {op!r}"
    if op == "eco":
        kind = _check_param("kind", spec["kind"], params.get("kind", REQUIRED))
        if kind not in ECO_PARAMS:
            raise EcoError(
                f"unknown eco kind {kind!r} (known: {', '.join(ECO_KINDS)})"
            )
        spec = {**spec, **ECO_PARAMS[str(kind)]}
        where = f"eco kind {kind!r}"
    unknown = sorted(key for key in params if key not in spec)
    if unknown:
        raise ProtocolError(
            f"unknown param {unknown[0]!r} for {where} "
            f"(known: {', '.join(spec) or 'none'})"
        )
    checked: dict[str, Any] = {}
    for key, param in spec.items():
        value = _check_param(key, param, params.get(key, REQUIRED))
        if value is not DERIVED:
            checked[key] = value
    return checked


def _check_param(key: str, param: Param, value: object) -> object:
    """One value (``REQUIRED`` when absent) checked against *param*."""
    name = _JSON_TYPE[param.value_type]
    if value is REQUIRED:
        if param.default is REQUIRED:
            raise ProtocolError(f"missing required {name} param {key!r}")
        return param.default
    if value is None and param.default is None:
        return None
    accepted: type | tuple[type, ...] = param.value_type
    if accepted is float:
        accepted = (int, float)
    if not isinstance(value, accepted) or (
        isinstance(value, bool) and param.value_type is not bool
    ):
        article = "an" if name[0] in "aeiou" else "a"
        raise ProtocolError(f"param {key!r} must be {article} {name}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value  # a string or a boolean: no range
    if param.value_type is float:
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ProtocolError(f"param {key!r} must be finite")
    if param.minimum is not None and value < param.minimum:
        raise ProtocolError(
            f"param {key!r} must be >= {param.minimum}, got {value}"
        )
    if param.maximum is not None and value > param.maximum:
        raise ProtocolError(
            f"param {key!r} must be <= {param.maximum}, got {value}"
        )
    return value
