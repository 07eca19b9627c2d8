"""Sharded parallel legalization engine.

The MLL primitive is strictly local — every decision it makes lives
inside a window of ``(2Rx + w_t) x (2Ry + h_t)`` around the target
position (paper Section 3) — so MLL calls whose windows do not overlap
commute.  This package exploits that: it tiles the floorplan into
vertical-stripe *shards* with a halo (:mod:`repro.engine.partition`),
legalizes every shard with the unmodified sequential legalizer in
worker processes served by one shard queue
(:mod:`repro.engine.shard_worker`, :mod:`repro.engine.supervisor`,
:mod:`repro.engine.executor`), and
merges the per-shard deltas back, resolving the (rare) cross-seam
conflicts with one final sequential MLL pass
(:mod:`repro.engine.reconcile`).

The merged placement passes :func:`~repro.checker.verify_placement`
exactly like the sequential path, and ``workers=N`` runs are
bit-reproducible for a fixed seed and shard count.  See
``docs/parallel_engine.md`` for the halo-correctness argument.

The names below resolve on first use (:mod:`repro._lazy`), so importing
:mod:`repro.engine.config` does not load the executor, the shard
queue or the TCP transport.  ``repro.engine.reconcile`` is the submodule; the
function of that name is ``repro.engine.reconcile.reconcile``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.engine.checkpoint import CheckpointManager as CheckpointManager
    from repro.engine.checkpoint import CheckpointState as CheckpointState
    from repro.engine.checkpoint import load_checkpoint as load_checkpoint
    from repro.engine.checkpoint import run_fingerprint as run_fingerprint
    from repro.engine.checkpoint import save_checkpoint as save_checkpoint
    from repro.engine.config import EngineConfig as EngineConfig
    from repro.engine.config import derive_halo_sites as derive_halo_sites
    from repro.engine.errors import CheckpointError as CheckpointError
    from repro.engine.errors import EngineError as EngineError
    from repro.engine.errors import RemoteProtocolError as RemoteProtocolError
    from repro.engine.errors import ResumeMismatchError as ResumeMismatchError
    from repro.engine.errors import TransportError as TransportError
    from repro.engine.executor import EngineResult as EngineResult
    from repro.engine.executor import ShardedLegalizer as ShardedLegalizer
    from repro.engine.executor import legalize_sharded as legalize_sharded
    from repro.engine.partition import Partition as Partition
    from repro.engine.partition import Shard as Shard
    from repro.engine.partition import partition_design as partition_design
    from repro.engine.reconcile import ReconcileError as ReconcileError
    from repro.engine.reconcile import SeamReport as SeamReport
    from repro.engine.reconcile import apply_shard_outcomes as apply_shard_outcomes
    from repro.engine.remote import TcpTransport as TcpTransport
    from repro.engine.remote import WorkerConfig as WorkerConfig
    from repro.engine.remote import run_worker as run_worker
    from repro.engine.remote import spawn_worker_process as spawn_worker_process
    from repro.engine.shard_worker import ShardCellSpec as ShardCellSpec
    from repro.engine.shard_worker import ShardOutcome as ShardOutcome
    from repro.engine.shard_worker import ShardTask as ShardTask
    from repro.engine.shard_worker import build_shard_design as build_shard_design
    from repro.engine.shard_worker import run_shard as run_shard
    from repro.engine.shard_worker import shard_seed as shard_seed
    from repro.engine.supervisor import ShardAttempt as ShardAttempt
    from repro.engine.supervisor import ShardQueue as ShardQueue
    from repro.engine.supervisor import SupervisionReport as SupervisionReport
    from repro.engine.supervisor import backoff_delay_s as backoff_delay_s
    from repro.engine.transport import LocalTransport as LocalTransport
    from repro.engine.transport import ShardTransport as ShardTransport
    from repro.engine.transport import TransportResult as TransportResult
    from repro.engine.transport import make_transport as make_transport

lazy_exports(globals(), {
    "CheckpointManager": "repro.engine.checkpoint",
    "CheckpointState": "repro.engine.checkpoint",
    "load_checkpoint": "repro.engine.checkpoint",
    "run_fingerprint": "repro.engine.checkpoint",
    "save_checkpoint": "repro.engine.checkpoint",
    "EngineConfig": "repro.engine.config",
    "derive_halo_sites": "repro.engine.config",
    "CheckpointError": "repro.engine.errors",
    "EngineError": "repro.engine.errors",
    "RemoteProtocolError": "repro.engine.errors",
    "ResumeMismatchError": "repro.engine.errors",
    "TransportError": "repro.engine.errors",
    "EngineResult": "repro.engine.executor",
    "ShardedLegalizer": "repro.engine.executor",
    "legalize_sharded": "repro.engine.executor",
    "Partition": "repro.engine.partition",
    "Shard": "repro.engine.partition",
    "partition_design": "repro.engine.partition",
    "ReconcileError": "repro.engine.reconcile",
    "SeamReport": "repro.engine.reconcile",
    "apply_shard_outcomes": "repro.engine.reconcile",
    "TcpTransport": "repro.engine.remote",
    "WorkerConfig": "repro.engine.remote",
    "run_worker": "repro.engine.remote",
    "spawn_worker_process": "repro.engine.remote",
    "ShardCellSpec": "repro.engine.shard_worker",
    "ShardOutcome": "repro.engine.shard_worker",
    "ShardTask": "repro.engine.shard_worker",
    "build_shard_design": "repro.engine.shard_worker",
    "run_shard": "repro.engine.shard_worker",
    "shard_seed": "repro.engine.shard_worker",
    "ShardAttempt": "repro.engine.supervisor",
    "ShardQueue": "repro.engine.supervisor",
    "SupervisionReport": "repro.engine.supervisor",
    "backoff_delay_s": "repro.engine.supervisor",
    "LocalTransport": "repro.engine.transport",
    "ShardTransport": "repro.engine.transport",
    "TransportResult": "repro.engine.transport",
    "make_transport": "repro.engine.transport",
})
