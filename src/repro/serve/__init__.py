"""Legalization-as-a-service: the asyncio multi-tenant ECO server.

The paper's algorithm is *incremental* — an ECO perturbs a handful of
cells and MLL repairs legality inside a bounded window — which is
exactly the shape of a request/response service.  This package is that
service: multiple designs resident in one long-lived process, each a
:class:`~repro.serve.session.DesignSession`, taking concurrent
legalize/ECO requests over line-delimited JSON
(:mod:`repro.serve.protocol`) with per-design FIFO serialization and
admission control (:mod:`repro.serve.jobs`), per-request
commit-or-rollback via the PR-2 journal, progress streamed from the
PR-3 checkpoint watermarks, and per-tenant fault domains
(:mod:`repro.serve.session`, :mod:`repro.serve.errors`).

Start it with ``repro serve`` (or ``python -m repro.serve``); drive it
from tests and benchmarks with :class:`~repro.serve.client.Client` /
:class:`~repro.serve.client.ServerHandle`.  See ``docs/serving.md``.
"""

from repro.serve.client import Client, RequestFailed, ServerHandle
from repro.serve.errors import (
    AdmissionError,
    EcoError,
    ProtocolError,
    ServeError,
    SessionExistsError,
    SessionQuarantinedError,
    ShuttingDownError,
    UnknownOpError,
    UnknownSessionError,
)
from repro.serve.jobs import Job, JobQueue, QueueStats
from repro.serve.manager import SessionManager
from repro.serve.protocol import (
    ECO_KINDS,
    KNOWN_OPS,
    PROTOCOL_VERSION,
    SESSION_OPS,
    Event,
    Request,
    Response,
    decode_reply,
    decode_request,
    encode,
)
from repro.serve.server import LegalizationServer, ServeConfig, run_server
from repro.serve.session import DesignSession, SessionInfo

__all__ = [
    "AdmissionError",
    "Client",
    "DesignSession",
    "ECO_KINDS",
    "EcoError",
    "Event",
    "Job",
    "JobQueue",
    "KNOWN_OPS",
    "LegalizationServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueueStats",
    "Request",
    "RequestFailed",
    "Response",
    "SESSION_OPS",
    "ServeConfig",
    "ServeError",
    "ServerHandle",
    "SessionExistsError",
    "SessionInfo",
    "SessionManager",
    "SessionQuarantinedError",
    "ShuttingDownError",
    "UnknownOpError",
    "UnknownSessionError",
    "decode_reply",
    "decode_request",
    "encode",
    "run_server",
]
