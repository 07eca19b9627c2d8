"""The shard queue's rules, one per test, with explicit clocks.

:class:`~repro.engine.supervisor.ShardQueue` takes ``now`` instead of
reading a clock, so every rule here runs without a process, a socket or
a sleep: lease, settle, expire and drop at chosen instants, then read
the report.
"""

from repro.core import LegalizerConfig
from repro.core.legalizer import LegalizationResult
from repro.db.library import Rail
from repro.engine import EngineConfig, ShardCellSpec, ShardOutcome, ShardTask
from repro.engine.supervisor import ShardQueue, backoff_delay_s

ENGINE = EngineConfig(
    max_shard_retries=1, backoff_base_s=0.5, backoff_max_s=4.0,
    lease_ttl_s=10.0, heartbeat_interval_s=1.0, shard_timeout_s=5.0,
)


def task(shard_id):
    return ShardTask(
        shard_id=shard_id, seed=100 + shard_id,
        config=LegalizerConfig(rx=4, ry=1), num_rows=2, row_width=20,
        site_width_um=1.0, site_height_um=1.0, first_rail=Rail.VDD,
        slice_x0=0, slice_x1=20, blockages=(), fences=(), frozen_rects=(),
        cells=(ShardCellSpec(0, "c0", 3, 1, None, 2.0, 0.0),),
    )


def outcome(shard_id):
    return ShardOutcome(
        shard_id=shard_id, placements=(), unplaced_cell_ids=(),
        stats=LegalizationResult(),
    )


def queue_of(*shard_ids, completed=None):
    delivered = []
    queue = ShardQueue(
        [task(sid) for sid in shard_ids], ENGINE,
        on_outcome=delivered.append, completed=completed,
    )
    return queue, delivered


def log(queue):
    return [
        (a.shard_id, a.attempt, a.rung, a.status)
        for a in queue.report.attempts
    ]


class TestShardQueue:
    def test_second_settle_is_a_duplicate_and_not_delivered(self):
        queue, delivered = queue_of(0)
        lease = queue.lease(0.0, "remote", holder=7)
        queue.settle(lease.key, 0, 1.0, outcome(0))
        queue.settle(lease.key, 0, 2.0, outcome(0))
        queue.deliver()
        assert delivered == [outcome(0)]
        assert queue.report.duplicate_results == 1
        assert log(queue) == [
            (0, 1, "remote", "ok"), (0, 1, "remote", "duplicate"),
        ]

    def test_heartbeat_renews_a_tcp_lease_but_not_a_pool_lease(self):
        queue, _ = queue_of(0, 1)
        remote = queue.lease(0.0, "remote", holder=1)
        pool = queue.lease(0.0, "pool")
        queue.renew(remote.key, 8.0)
        queue.renew(pool.key, 8.0)
        assert remote.deadline == 8.0 + ENGINE.lease_ttl_s
        assert pool.deadline == ENGINE.shard_timeout_s
        assert [lease.key for lease in queue.expire(9.0)] == [pool.key]

    def test_expire_books_a_timeout_and_requeues_after_backoff(self):
        queue, _ = queue_of(0)
        lease = queue.lease(0.0, "pool")
        now = ENGINE.shard_timeout_s
        assert queue.expire(now) == [lease]
        assert queue.report.timeouts == 1
        assert log(queue) == [(0, 1, "pool", "timeout")]
        ready = now + backoff_delay_s(ENGINE, task(0).seed, 1)
        assert queue.lease(ready - 1e-6, "pool") is None
        retry = queue.lease(ready, "pool")
        assert (retry.task.shard_id, retry.task.attempt) == (0, 2)

    def test_attempt_after_the_budget_escalates(self):
        queue, _ = queue_of(0)
        first = queue.lease(0.0, "remote", holder=1)
        queue.settle(first.key, 0, 1.0, status="error", detail="boom")
        second = queue.lease(100.0, "pool")
        queue.settle(second.key, 0, 101.0, status="error", detail="boom")
        assert queue.lease(200.0, "pool") is None
        escalated = queue.lease(200.0, "inprocess")
        assert escalated.task.attempt == 3
        assert queue.report.retries == 1
        assert queue.report.inprocess_escalations == 1

    def test_inprocess_failure_sets_serial_fallback(self):
        queue, _ = queue_of(0)
        for now, rung in ((0.0, "pool"), (100.0, "pool")):
            lease = queue.lease(now, rung)
            queue.settle(lease.key, 0, now, status="error", detail="boom")
        assert not queue.report.serial_fallback
        lease = queue.lease(200.0, "inprocess")
        queue.settle(lease.key, 0, 201.0, status="error", detail="boom")
        assert queue.report.serial_fallback
        assert queue.report.failed_shards == [0]

    def test_completed_shards_are_skipped(self):
        queue, delivered = queue_of(0, 1, completed={0: outcome(0)})
        lease = queue.lease(0.0, "pool")
        assert lease.task.shard_id == 1
        assert queue.lease(0.0, "pool") is None
        assert queue.report.skipped_shards == [0]
        queue.settle(lease.key, 1, 1.0, outcome(1))
        queue.deliver()
        assert delivered == [outcome(1)]
        assert queue.outcomes() == [outcome(0), outcome(1)]

    def test_drop_holder_books_one_crash_per_lease(self):
        queue, _ = queue_of(0, 1, 2)
        queue.lease(0.0, "remote", holder=1)
        queue.lease(0.0, "remote", holder=1)
        queue.lease(0.0, "remote", holder=2)
        queue.drop_holder(1, 3.0)
        assert queue.report.crashes == 2
        assert log(queue) == [
            (0, 1, "remote", "crash"), (1, 1, "remote", "crash"),
        ]
        assert queue.has_leases()  # holder 2's lease lives on
