"""Structured failure taxonomy of the parallel engine.

Shard-attempt failures (a worker crash, a timeout, a worker that
raised) never surface as exceptions: the supervisor contains them,
retries, degrades down its ladder, and records each one as a
``crash`` / ``timeout`` / ``error`` attempt in the
:class:`~repro.engine.supervisor.SupervisionReport`.  What remains are
the run-level failures, one class each, so callers (the CLI, tests)
react to *categories* instead of string-matching messages:

``EngineError``
    root of the taxonomy.

``CheckpointError`` / ``ResumeMismatchError``
    a checkpoint file is unreadable / belongs to a different run
    (design, config, or partition fingerprint differs).

``TransportError`` / ``RemoteProtocolError``
    the distributed shard transport failed: a drained coordinator with
    shards outstanding, an unreachable coordinator, or a malformed or
    version-mismatched wire message.

Each class takes a single message, so all of them pickle and can
cross the process boundary intact.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class of all parallel-engine failures."""


class CheckpointError(EngineError):
    """A checkpoint file could not be read, parsed, or written."""


class ResumeMismatchError(CheckpointError):
    """The checkpoint belongs to a different run.

    The fingerprint covers the design identity, the legalizer config
    fields that shape placement (seed, windows, ordering), and the
    partition (shard boundaries + derived per-shard seeds): resuming
    with any of those changed would splice incompatible deltas, so it
    is refused outright.
    """


class TransportError(EngineError):
    """Root of the distributed shard-transport failures.

    Raised for coordinator-side faults that are not attributable to a
    single shard attempt (those are contained, retried and recorded in
    the :class:`~repro.engine.supervisor.SupervisionReport` instead).
    """


class RemoteProtocolError(TransportError):
    """A wire message could not be framed, parsed, or validated.

    Covers JSON/base64/pickle decode failures, unknown operations, and
    protocol-version mismatches between a coordinator and a worker.
    The offending peer's connection is dropped; its leases requeue.
    """
