"""Wire framing of the distributed shard transport.

One message per line (NDJSON, UTF-8, deterministic ``sort_keys``
encoding) — the same framing style as :mod:`repro.serve.protocol`, so
the coordinator port is debuggable with ``nc`` and the two wire layers
stay idiomatically identical.  Shard tasks and outcomes are value
objects that already cross the local process boundary as pickles
(:class:`~repro.engine.shard_worker.ShardTask` /
:class:`~repro.engine.shard_worker.ShardOutcome`); on the TCP boundary
the same pickle bytes travel base64-encoded inside the JSON envelope,
so local and remote workers execute byte-identical tasks.

Message vocabulary (all coordinator⇄worker traffic):

* worker → coordinator: ``hello`` (name, pid, protocol version),
  ``steal`` (request one task), ``heartbeat`` (renew a lease),
  ``result`` (deliver an outcome, or a failure with a traceback);
* coordinator → worker (only ever in reply to ``steal``): ``task``
  (a lease + payload), ``wait`` (no task ready; retry after a delay),
  ``drain`` (no more work will ever come; disconnect and exit).

``heartbeat`` and ``result`` are deliberately one-way: the worker never
blocks on an acknowledgement, so a zombie worker's duplicate delivery
is just another line the coordinator dedupes by attempt id.

Security note: payloads are pickles, so the coordinator port must only
be exposed to trusted worker hosts (the same trust boundary as the
local worker processes, which receive the same pickles; see
``docs/parallel_engine.md``).
"""

from __future__ import annotations

import base64
import binascii
import json
import pickle
import socket
import struct
import threading
from typing import BinaryIO

from repro.engine.errors import RemoteProtocolError

#: Bump on any incompatible change to the message shapes or payload
#: encoding; a coordinator refuses workers speaking a different version.
WIRE_VERSION = 1

#: Operations a worker may send.
WORKER_OPS: frozenset[str] = frozenset({"hello", "steal", "heartbeat", "result"})

#: Operations a coordinator may send (replies to ``steal``).
COORDINATOR_OPS: frozenset[str] = frozenset({"task", "wait", "drain"})


def encode_message(message: dict[str, object]) -> bytes:
    """Serialize one message to its wire line (newline included)."""
    line = json.dumps(message, sort_keys=True, separators=(",", ":"))
    return line.encode("utf-8") + b"\n"


def decode_message(line: bytes) -> dict[str, object]:
    """Parse one wire line into a message dict.

    Raises :class:`RemoteProtocolError` on anything malformed — the
    peer connection is then dropped and its leases requeue, never
    silently ignored.
    """
    try:
        raw = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # Bad UTF-8 and JSON are ValueErrors, as is an over-long
        # integer; deep nesting raises RecursionError.
        raise RemoteProtocolError(f"wire line is not NDJSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise RemoteProtocolError("wire message must be a JSON object")
    op = raw.get("op")
    if not isinstance(op, str) or not op:
        raise RemoteProtocolError("wire message needs a string `op`")
    return {str(key): value for key, value in raw.items()}


def pack_payload(obj: object) -> str:
    """Pickle *obj* and base64-wrap it for the JSON envelope.

    The payload contract is the process-boundary contract (RL6): only
    module-level-importable value objects — ``ShardTask`` /
    ``ShardOutcome`` and their frozen fields — may cross, never live
    designs, journals, locks, or callables.
    """
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_payload(text: str) -> object:
    """Reverse :func:`pack_payload`; malformed input is a protocol error."""
    try:
        blob = base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError, ValueError) as exc:
        raise RemoteProtocolError(
            f"payload is not valid base64: {exc}"
        ) from exc
    try:
        return pickle.loads(blob)
    except Exception as exc:  # pickle raises a small zoo of types
        raise RemoteProtocolError(
            f"payload does not unpickle: {exc}"
        ) from exc


def message_str(message: dict[str, object], key: str) -> str:
    """Typed field access: a missing or mistyped field is a protocol
    error."""
    value = message.get(key)
    if not isinstance(value, str):
        raise RemoteProtocolError(
            f"wire message field {key!r} must be a string"
        )
    return value


def message_int(message: dict[str, object], key: str) -> int:
    value = message.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RemoteProtocolError(
            f"wire message field {key!r} must be an integer"
        )
    return value


def message_float(message: dict[str, object], key: str) -> float:
    value = message.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RemoteProtocolError(
            f"wire message field {key!r} must be a number"
        )
    return float(value)


class LineChannel:
    """A thread-safe NDJSON channel over one connected socket.

    Reads are single-threaded by construction (each peer has exactly
    one reader); writes take a lock because a worker's heartbeat thread
    and its main loop share the connection.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        raw: BinaryIO = sock.makefile("rwb")
        self._file = raw
        self._write_lock = threading.Lock()

    def send(self, message: dict[str, object]) -> None:
        """Write one message; ``OSError`` propagates to the caller."""
        data = encode_message(message)
        with self._write_lock:
            self._file.write(data)
            self._file.flush()

    def recv(self) -> dict[str, object] | None:
        """Read one message; ``None`` on a clean EOF."""
        line = self._file.readline()
        if not line:
            return None
        return decode_message(line)

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def abort(self) -> None:
        """Tear the connection down abruptly (chaos: connection drop).

        ``SO_LINGER`` with a zero timeout makes the close send an RST
        instead of a FIN, which is what a yanked network cable or a
        kernel-killed host looks like from the coordinator's side.
        """
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:  # pragma: no cover - platform-specific
            pass
        self.close()
