"""RL11 negative: the blessed discipline.  Every write to the shared
counter, and every write to a lease through a local alias of
``self._leases``, holds the same lock from both concurrency roots, and
the only event-loop interaction from thread context goes through the
``call_soon_threadsafe`` hop (the queue method travels as a value
reference; the loop invokes it on its own thread)."""

import asyncio
import threading


class Tally:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0

    def bump(self) -> None:
        with self._lock:
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
        with self._lock:
            lease = self._leases.get(key)
            if lease is not None:
                lease.deadline = now


def worker(
    tally: Tally,
    outbox: asyncio.Queue,
    loop: asyncio.AbstractEventLoop,
    leases: Leases,
) -> None:
    tally.bump()
    leases.renew("a", 1.0)
    loop.call_soon_threadsafe(outbox.put_nowait, 1)


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
    tally.bump()
    leases.add("a")
    thread.join()
