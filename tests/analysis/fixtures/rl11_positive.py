"""RL11 positive: inconsistent lockset + cross-thread loop touches.

``Tally.count`` is written from two concurrency roots (the spawned
``worker`` thread and the ``main`` spawner frame); the locked write in
``locked_bump`` documents the discipline, the bare write in
``bare_bump`` breaks it.  ``Leases.renew`` writes a lease through a
local alias of ``self._leases`` without the lock ``Leases.add`` holds.
``worker`` also touches event-loop objects directly from thread context
— a typed ``asyncio.Queue.put_nowait`` and a by-name
``loop.call_soon`` — instead of hopping through
``call_soon_threadsafe``.
"""

import asyncio
import threading


class Tally:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def locked_bump(self) -> None:
        with self._lock:
            self.count += 1

    def bare_bump(self) -> None:
        self.count += 1


class Lease:
    def __init__(self) -> None:
        self.deadline = 0.0


class Leases:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._leases: dict[str, Lease] = {}

    def add(self, key: str) -> None:
        with self._lock:
            self._leases[key] = Lease()

    def renew(self, key: str, now: float) -> None:
        lease = self._leases.get(key)
        if lease is not None:
            lease.deadline = now


def worker(
    tally: Tally,
    outbox: asyncio.Queue,
    loop: asyncio.AbstractEventLoop,
    leases: Leases,
) -> None:
    tally.bare_bump()
    leases.renew("a", 1.0)
    outbox.put_nowait(1)
    loop.call_soon(tally.locked_bump)


def main(
    tally: Tally,
    outbox: asyncio.Queue,
    loop: asyncio.AbstractEventLoop,
    leases: Leases,
) -> None:
    thread = threading.Thread(
        target=worker, args=(tally, outbox, loop, leases)
    )
    thread.start()
    tally.locked_bump()
    leases.add("a")
    thread.join()
