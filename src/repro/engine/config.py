"""Configuration of the sharded parallel legalization engine.

:class:`EngineConfig` complements :class:`~repro.core.config.LegalizerConfig`:
the legalizer config describes *what* Algorithm 1 / MLL do, the engine
config describes *how the work is split and executed* — shard count,
worker pool size, halo width, and when to fall back to the plain
sequential path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import LegalizerConfig

#: Retry rounds of Algorithm 1 the derived halo budgets for: round *k*
#: perturbs targets by up to ``Rx * (k - 1)`` sites, so the halo covers
#: perturbations up to ``Rx * HALO_RETRY_ROUNDS``.  Later retry targets
#: snap back to the shard slice edge (a quality bound, not a
#: correctness one).
HALO_RETRY_ROUNDS = 3


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Knobs of the sharded parallel engine (:mod:`repro.engine`)."""

    workers: int = 1
    """Worker processes.  ``1`` executes shards serially in-process (the
    sharded code path is still exercised when ``shards > 1``); ``0``
    means "one per available CPU"."""

    shards: int | None = None
    """Vertical-stripe shard count.  ``None`` derives it from
    ``workers`` (one shard per worker).  The partitioner may lower the
    effective count on narrow floorplans — see
    :func:`repro.engine.partition.partition_design`."""

    halo_sites: int | None = None
    """Halo width in sites added on both sides of each shard's interior.
    ``None`` derives it from the legalizer config, see
    :func:`derive_halo_sites`.  The halo is placeable overflow room: a
    shard may place cells up to ``halo_sites`` beyond its interior, so
    cross-shard conflicts are confined to seam bands of width
    ``2 * halo_sites``."""

    serial_threshold: int = 2048
    """Designs with fewer movable cells than this run the plain
    sequential :class:`~repro.core.legalizer.Legalizer` — below this
    size, process fan-out costs more than it saves."""

    # -- supervision (fault tolerance of the worker fleet) -------------
    shard_timeout_s: float | None = None
    """Per-attempt wall-clock budget of one shard, measured from worker
    dispatch.  On expiry the worker process is terminated and the shard
    retried (a ``timeout`` attempt in the supervision report).  ``None``
    (default) disables timeouts."""

    max_shard_retries: int = 2
    """Worker-pool retries per shard after its first attempt, before
    the supervisor escalates to the in-process rung of the degradation
    ladder.  Retried attempts reuse the shard's derived seed, so any
    successful attempt is byte-identical."""

    backoff_base_s: float = 0.25
    """First retry delay; attempt *k* waits ``backoff_base_s *
    2**(k-1)`` seconds (capped at :attr:`backoff_max_s`), plus jitter.
    Backoff gives a transiently-starved host (OOM pressure, CPU
    squeeze) room to recover before the shard is re-dispatched."""

    backoff_max_s: float = 30.0
    """Upper bound on a single backoff delay."""

    # -- distributed transport (multi-host shard execution) -------------
    transport: str = "local"
    """Where shards execute: ``"local"`` (the in-host pool/supervisor,
    default, zero behavior change) or ``"tcp"`` (a coordinator serving
    a work-stealing shard queue to remote ``repro worker`` processes —
    see :mod:`repro.engine.remote`)."""

    bind_host: str = "127.0.0.1"
    """Coordinator listen address for ``transport="tcp"``.  Bind to a
    routable interface (e.g. ``0.0.0.0``) only on trusted networks —
    shard payloads are pickles."""

    bind_port: int = 0
    """Coordinator listen port; ``0`` picks an ephemeral port (exposed
    on ``TcpTransport.port`` once bound)."""

    lease_ttl_s: float = 30.0
    """Per-shard lease: a dispatched shard must deliver its outcome or
    a heartbeat within this window, or the coordinator declares the
    worker dead/partitioned/hung and requeues the shard (recorded as a
    lease expiry in the supervision report)."""

    heartbeat_interval_s: float = 5.0
    """How often a busy worker renews its lease.  Sent to the worker
    inside each task message (workers need no local configuration);
    must be smaller than :attr:`lease_ttl_s`."""

    worker_wait_s: float = 30.0
    """How long the coordinator waits for a remote worker to join (or,
    after the whole fleet died, to rejoin) before handing its queue to
    the local supervisor pool."""

    drain_grace_s: float = 5.0
    """On coordinator shutdown (SIGTERM or run teardown) with leases
    still in flight, how long to keep accepting results so a final
    checkpoint captures every shard that was about to land."""

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU)")
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.halo_sites is not None and self.halo_sites < 0:
            raise ValueError("halo_sites must be >= 0")
        if self.serial_threshold < 0:
            raise ValueError("serial_threshold must be >= 0")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive (or None)")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.transport not in ("local", "tcp"):
            raise ValueError(
                f"unknown transport {self.transport!r} "
                f"(expected 'local' or 'tcp')"
            )
        if self.bind_port < 0 or self.bind_port > 65535:
            raise ValueError("bind_port must be in [0, 65535]")
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.heartbeat_interval_s >= self.lease_ttl_s:
            raise ValueError(
                "heartbeat_interval_s must be smaller than lease_ttl_s "
                "(a healthy worker must renew before its lease expires)"
            )
        if self.worker_wait_s < 0:
            raise ValueError("worker_wait_s must be >= 0")
        if self.drain_grace_s < 0:
            raise ValueError("drain_grace_s must be >= 0")

    def resolved_workers(self) -> int:
        """Worker count with ``0`` resolved to the available CPUs."""
        if self.workers > 0:
            return self.workers
        import os

        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux
            return max(1, os.cpu_count() or 1)


def derive_halo_sites(config: LegalizerConfig, max_cell_width: int) -> int:
    """Halo width guaranteeing full MLL feasibility for interior targets.

    An MLL window for a target position ``tx`` spans ``[tx - Rx,
    tx + Rx + w_t)`` (paper Section 3), and Algorithm 1 perturbs retry
    targets by up to ``Rx * (k - 1)`` sites in round ``k``.  A halo of::

        2*Rx + max_cell_width + Rx * min(max_rounds - 1, 3)

    therefore keeps the *entire* window of any interior cell — including
    its first :data:`HALO_RETRY_ROUNDS` retry perturbations — inside the
    shard slice, so no MLL window is clipped by the shard boundary and
    no MLL window reaches past the neighbor's halo into *its* interior's
    far side.  See ``docs/parallel_engine.md`` for the full argument.
    """
    rounds = min(max(config.max_rounds - 1, 0), HALO_RETRY_ROUNDS)
    return 2 * config.rx + max(0, max_cell_width) + config.rx * rounds
