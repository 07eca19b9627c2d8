"""JobQueue unit tests: retirement, stats hygiene, rejected submits."""

import asyncio
import threading
import time

import pytest

from repro.serve import ServeConfig
from repro.serve.errors import ShuttingDownError
from repro.serve.jobs import JobQueue
from repro.serve.protocol import Request
from repro.serve.server import LegalizationServer


async def _settle(queue: JobQueue, timeout_s: float = 5.0) -> bool:
    """Yield the loop until every idle worker has retired; return
    whether that happened within *timeout_s* of wall-clock time.

    Jobs run in ``asyncio.to_thread``, so retirement waits on real
    threads: a fixed count of loop turns can run out on a slow host.
    """
    deadline = time.monotonic() + timeout_s
    while queue._workers or queue._queues:
        now = time.monotonic()
        if now >= deadline:
            return False
        await asyncio.sleep(0.001)
    return True


class TestWorkerRetirement:
    def test_drained_queues_are_pruned(self):
        """A long-lived server must not keep an idle worker task and a
        stale ``stats().queued`` row for every session name ever used."""

        async def scenario() -> None:
            queue = JobQueue(max_inflight=2, queue_depth=4)
            for name in ("a", "b", "c"):
                result = await queue.submit(name, lambda: {"ok": True})
                assert result == {"ok": True}
            await _settle(queue)
            assert queue.stats().queued == {}
            assert queue._workers == {}
            assert queue.completed == 3

        asyncio.run(scenario())

    def test_key_is_reusable_after_retirement(self):
        async def scenario() -> None:
            queue = JobQueue(max_inflight=1, queue_depth=4)
            assert await queue.submit("a", lambda: {"n": 1}) == {"n": 1}
            await _settle(queue)
            # Same key again: a fresh queue/worker pair, FIFO intact.
            first = queue.submit("a", lambda: {"n": 2})
            second = queue.submit("a", lambda: {"n": 3})
            assert await first == {"n": 2}
            assert await second == {"n": 3}
            await _settle(queue)
            assert queue.stats().queued == {}

        asyncio.run(scenario())

    def test_retirement_survives_a_failing_job(self):
        async def scenario() -> None:
            queue = JobQueue(max_inflight=1, queue_depth=4)

            def boom() -> dict[str, object]:
                raise RuntimeError("job exploded")

            with pytest.raises(RuntimeError):
                await queue.submit("a", boom)
            await _settle(queue)
            assert queue.stats().queued == {}
            assert queue.failed == 1

        asyncio.run(scenario())


class TestRetirementSubmitRace:
    """The worker-retirement vs. submit interleavings (PR-9 audit).

    Retirement is safe because the post-job cleanup runs in one atomic
    event-loop slice; these tests pin both windows so a refactor that
    introduces an await into the retirement path fails loudly instead
    of stranding jobs."""

    def test_submit_while_last_job_is_running_is_not_stranded(self):
        """A job submitted while the worker is inside the *last*
        queued job's ``to_thread`` call must be drained by that same
        worker, not stranded on a deleted queue."""

        async def scenario() -> None:
            queue = JobQueue(max_inflight=2, queue_depth=8)
            release = threading.Event()
            entered = asyncio.Event()
            loop = asyncio.get_running_loop()

            def slow() -> dict[str, object]:
                loop.call_soon_threadsafe(entered.set)
                assert release.wait(timeout=10.0)
                return {"job": "slow"}

            first = queue.submit("a", slow)
            # The worker is now inside slow() for its last queued job.
            await entered.wait()
            second = queue.submit("a", lambda: {"job": "late"})
            release.set()
            assert await first == {"job": "slow"}
            assert await second == {"job": "late"}
            await _settle(queue)
            assert queue.stats().queued == {}
            assert queue.completed == 2

        asyncio.run(scenario())

    def test_retire_recreate_churn_keeps_fifo_and_loses_nothing(self):
        """Many bursts against one key across repeated retirement
        cycles: every future resolves and per-key FIFO order holds."""

        async def scenario() -> None:
            queue = JobQueue(max_inflight=4, queue_depth=64)
            order: list[int] = []

            def job(n: int):
                def run() -> dict[str, object]:
                    order.append(n)
                    return {"n": n}

                return run

            n = 0
            futures = []
            for _burst in range(25):
                for _ in range(4):
                    futures.append(queue.submit("a", job(n)))
                    n += 1
                # Let the worker drain fully so it retires between
                # bursts (the churn being exercised).
                assert await _settle(queue), "the worker did not retire"
            results = await asyncio.gather(*futures)
            assert [r["n"] for r in results] == list(range(n))
            assert order == list(range(n))
            assert queue.stats().queued == {}
            assert queue._workers == {}
            assert queue.completed == n

        asyncio.run(scenario())


class TestReservationRelease:
    def test_rejected_open_releases_the_name(self):
        """If jobs.submit rejects an open/generate after the name was
        reserved, the placeholder must be released — otherwise the name
        reads as resident forever and eats a max_sessions slot."""

        async def scenario() -> None:
            server = LegalizationServer(ServeConfig(max_sessions=1))
            out: asyncio.Queue = asyncio.Queue()
            request = Request(
                id="r1",
                op="generate",
                session="chipA",
                params={"cells": 10},
            )
            server.jobs._closing = True
            with pytest.raises(ShuttingDownError):
                server._dispatch(request, out)
            assert "chipA" not in server.manager
            assert len(server.manager) == 0
            # The slot is genuinely free: a later reserve succeeds.
            server.manager.reserve("chipA")
            server.manager.release("chipA")

        asyncio.run(scenario())
