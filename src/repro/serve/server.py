"""The asyncio legalization server.

One event loop, three moving parts:

* a **connection handler** per client: reads NDJSON request lines,
  validates them, and submits session-keyed work to the
  :class:`~repro.serve.jobs.JobQueue` *inline in the read loop* — this
  is load-bearing: submission order on a connection (and across
  connections, by arrival at the loop) defines the per-design FIFO
  order, so parsing must never be deferred to a spawned task;
* a **writer task** per connection: the single owner of the socket's
  write side, fed bytes through a queue (responses and progress events
  originate from many tasks/threads; funneling through one writer keeps
  lines whole);
* the **job queue** itself, dispatching the blocking legalize/ECO work
  to threads under a global concurrency bound.

Graceful shutdown (SIGTERM/SIGINT or the ``shutdown`` op): stop
accepting connections, reject new requests with ``shutting_down``,
drain everything in flight, flush a Bookshelf snapshot of every
resident session to the snapshot directory, close the sockets, exit 0.
A kill mid-drain loses at most uncommitted requests — committed state
was journal-consistent at every point.
"""

from __future__ import annotations

import asyncio
import json
import signal
from dataclasses import dataclass

from repro.core.config import LegalizerConfig
from repro.serve import protocol
from repro.serve.errors import ServeError
from repro.serve.jobs import JobFn, JobQueue
from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    Event,
    ProtocolError,
    Request,
    Response,
    check_params,
)
from repro.serve.session import DesignSession
from repro.testing.faults import InjectedFault


@dataclass(slots=True)
class ServeConfig:
    """Everything `repro serve` can be started with."""

    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 8
    max_inflight: int = 4
    queue_depth: int = 16
    fault_budget: int = 3
    snapshot_dir: str | None = None
    allow_fault_injection: bool = False


class LegalizationServer:
    """Holds the sessions, the queue, and the listening socket."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        legalizer_config: LegalizerConfig | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.manager = SessionManager(
            base_config=legalizer_config,
            max_sessions=self.config.max_sessions,
            fault_budget=self.config.fault_budget,
            snapshot_dir=self.config.snapshot_dir,
            allow_fault_injection=self.config.allow_fault_injection,
        )
        self.jobs = JobQueue(
            max_inflight=self.config.max_inflight,
            queue_depth=self.config.queue_depth,
        )
        self._server: asyncio.AbstractServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._shutdown = asyncio.Event()
        self._out_queues: list[asyncio.Queue[bytes | None]] = []
        self._responders: list[asyncio.Task[None]] = []
        self.port: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (port 0 = ephemeral, see .port)."""
        self.loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Flip the shutdown event (signal handlers land here)."""
        self._shutdown.set()

    async def serve_until_shutdown(self) -> list[str]:
        """Run until shutdown is requested; returns flushed snapshots."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        return await self.stop()

    async def stop(self) -> list[str]:
        """Graceful teardown; returns the flushed snapshot paths."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Drain in-flight and queued work (new submits are rejected).
        await self.jobs.close()
        if self._responders:
            await asyncio.gather(
                *self._responders, return_exceptions=True
            )
            self._responders.clear()
        # Flush every resident session's checkpoint (the SIGTERM
        # contract CI gates on), off-loop: it is blocking file I/O.
        written = await asyncio.to_thread(self.manager.flush_all)
        for out in self._out_queues:
            out.put_nowait(None)
        self._out_queues.clear()
        return written

    # ------------------------------------------------------------------
    # Per-connection plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        out: asyncio.Queue[bytes | None] = asyncio.Queue()
        self._out_queues.append(out)
        writer_task = asyncio.create_task(self._write_loop(writer, out))
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    too_long = ProtocolError(
                        f"request line exceeds the "
                        f"{protocol.MAX_LINE_BYTES}-byte limit; dropped"
                    )
                    out.put_nowait(_error_bytes("?", too_long))
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                self._handle_line(line, out)
        except asyncio.CancelledError:
            # Event-loop teardown (asyncio.run cancelling pending
            # tasks) can land while we block in readline; treat it as
            # an orderly disconnect and fall through to cleanup.  The
            # task must *finish uncancelled*, else the streams
            # done-callback logs a spurious CancelledError through the
            # loop exception handler at every shutdown.
            pass
        finally:
            if out in self._out_queues:
                self._out_queues.remove(out)
            out.put_nowait(None)
            try:
                await writer_task
                writer.close()
                await writer.wait_closed()
            except asyncio.CancelledError:  # pragma: no cover
                writer.close()  # teardown raced the close handshake
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _write_loop(
        writer: asyncio.StreamWriter, out: "asyncio.Queue[bytes | None]"
    ) -> None:
        while True:
            data = await out.get()
            if data is None:
                return
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                return

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def _handle_line(
        self, line: bytes, out: "asyncio.Queue[bytes | None]"
    ) -> None:
        """Decode + dispatch one request line, inline on the loop."""
        try:
            request = protocol.decode_request(line)
        except ProtocolError as exc:
            out.put_nowait(
                protocol.encode(
                    Response(
                        id=_best_effort_id(line),
                        ok=False,
                        error_code=exc.code,
                        error_message=str(exc),
                    )
                )
            )
            return
        try:
            self._dispatch(request, out)
        except ServeError as exc:
            out.put_nowait(_error_bytes(request.id, exc))

    def _dispatch(
        self, request: Request, out: "asyncio.Queue[bytes | None]"
    ) -> None:
        op = request.op
        if op in ("ping", "sessions", "shutdown"):
            check_params(op, request.params)  # they take none
        if op == "ping":
            out.put_nowait(
                protocol.encode(
                    Response(
                        id=request.id,
                        ok=True,
                        result={
                            "protocol": protocol.PROTOCOL_VERSION,
                            "sessions": len(self.manager),
                            "queue": self.jobs.stats().to_wire(),
                        },
                    )
                )
            )
            return
        if op == "sessions":
            out.put_nowait(
                protocol.encode(
                    Response(
                        id=request.id,
                        ok=True,
                        result={
                            "sessions": [
                                info.to_wire()
                                for info in self.manager.list_info()
                            ]
                        },
                    )
                )
            )
            return
        if op == "shutdown":
            self.request_shutdown()
            out.put_nowait(
                protocol.encode(
                    Response(
                        id=request.id,
                        ok=True,
                        result={"shutting_down": True},
                    )
                )
            )
            return
        # Session-keyed ops: everything rides the per-design FIFO.
        name = request.session
        if name is None:  # decode_request enforced this already
            raise ProtocolError(f"op {op!r} requires a `session`")
        fn = self._job_fn(request, name, out)
        if op in ("open", "generate"):
            # Reserve synchronously so a racing open fails fast and the
            # build job below is the queue's first entry for this name.
            self.manager.reserve(name)
            try:
                future = self.jobs.submit(name, fn)
            except BaseException:
                # A rejected submit (full queue, shutting down) must not
                # strand the reserved placeholder: the name would read
                # as resident forever and the dead slot would count
                # against max_sessions.
                self.manager.release(name)
                raise
        else:
            future = self.jobs.submit(name, fn)
        responder = asyncio.get_running_loop().create_task(
            self._respond(request.id, future, out),
            name=f"serve-respond-{request.id}",
        )
        self._responders.append(responder)
        responder.add_done_callback(self._prune_responder)

    def _prune_responder(self, task: "asyncio.Task[None]") -> None:
        try:
            self._responders.remove(task)
        except ValueError:  # pragma: no cover - double callback
            pass

    def _job_fn(
        self,
        request: Request,
        name: str,
        out: "asyncio.Queue[bytes | None]",
    ) -> JobFn:
        op = request.op
        params = request.params
        loop = asyncio.get_running_loop()

        def progress(data: dict[str, object]) -> None:
            # Worker thread -> event loop -> connection writer.
            payload = protocol.encode(
                Event(id=request.id, kind="progress", data=data)
            )
            loop.call_soon_threadsafe(out.put_nowait, payload)

        if op in ("open", "generate"):

            def build() -> dict[str, object]:
                try:
                    session = self.manager.build(name, op, params)
                except BaseException:
                    self.manager.release(name)
                    raise
                self.manager.install(session)
                info = session.info()
                return {
                    "opened": name,
                    "cells": info.cells,
                    "placed": info.placed,
                    "digest": session.digest(),
                    "seq": 0,
                }

            return build

        if op == "close":

            def close() -> dict[str, object]:
                session = self.manager.get(name)
                snapshot: str | None = None
                if check_params("close", params)["snapshot"]:
                    snapshot = session.snapshot()
                self.manager.evict(name)
                result: dict[str, object] = {
                    "closed": name,
                    "seq": session.seq,
                }
                if snapshot is not None:
                    result["snapshot"] = snapshot
                return result

            return close

        def run() -> dict[str, object]:
            session: DesignSession = self.manager.get(name)
            return session.execute(op, params, progress)

        return run

    async def _respond(
        self,
        rid: str,
        future: "asyncio.Future[dict[str, object]]",
        out: "asyncio.Queue[bytes | None]",
    ) -> None:
        try:
            result = await future
        except asyncio.CancelledError:  # pragma: no cover - shutdown race
            out.put_nowait(
                _error_bytes(
                    rid, ServeError("request cancelled by shutdown")
                )
            )
        except Exception as exc:
            out.put_nowait(_error_bytes(rid, exc))
        else:
            out.put_nowait(
                protocol.encode(Response(id=rid, ok=True, result=result))
            )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _error_bytes(rid: str, exc: BaseException) -> bytes:
    if isinstance(exc, ServeError):
        code = exc.code
    elif isinstance(exc, InjectedFault):
        code = "fault"
    else:
        code = "internal"
    message = str(exc) or type(exc).__name__
    return protocol.encode(
        Response(id=rid, ok=False, error_code=code, error_message=message)
    )


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line, ``b""`` at end of stream, or ``None`` for a line
    longer than the reader's limit, which is read up to its newline and
    dropped in limit-sized pieces, never buffered whole."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        # The overrun bytes are buffered already: drop them, then look
        # for the newline again in what follows.
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


def _best_effort_id(line: bytes) -> str:
    """Pull an ``id`` out of a line that failed full validation."""
    try:
        raw = json.loads(line.decode("utf-8", errors="replace"))
    except (ValueError, RecursionError):
        return "?"
    if isinstance(raw, dict) and isinstance(raw.get("id"), str):
        return raw["id"]
    return "?"


# ----------------------------------------------------------------------
# Entry point used by `repro serve` and `python -m repro.serve`
# ----------------------------------------------------------------------
async def run_server(
    config: ServeConfig,
    legalizer_config: LegalizerConfig | None = None,
    ready: "asyncio.Event | None" = None,
    install_signal_handlers: bool = True,
) -> int:
    """Start, announce, serve until shutdown, flush, exit 0."""
    server = LegalizationServer(config, legalizer_config)
    await server.start()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
    print(
        f"repro serve: listening on {config.host}:{server.port} "
        f"(max_sessions={config.max_sessions}, "
        f"max_inflight={config.max_inflight})",
        flush=True,
    )
    if ready is not None:
        ready.set()
    written = await server.serve_until_shutdown()
    for path in written:
        print(f"repro serve: flushed {path}", flush=True)
    print("repro serve: clean shutdown", flush=True)
    return 0
