"""ConcurrencyModel unit tests.

Each case builds a tiny single-file program and checks spawn
classification, await points, lockset inference or the derived
thread context.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.callgraph import Program
from repro.analysis.concurrency import model_for


def program_of(tmp_path: Path, source: str) -> Program:
    path = tmp_path / "mod.py"
    path.write_text(source)
    return Program.from_paths([str(path)])


SPAWN_SRC = """\
import asyncio
import threading


class Coordinator:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.jobs = 0

    def work(self) -> None:
        with self._lock:
            self.jobs += 1

    def start(self) -> None:
        thread = threading.Thread(target=self.work)
        thread.start()


def helper() -> None:
    pass


async def tick() -> None:
    await asyncio.sleep(0)


async def main() -> None:
    task = asyncio.create_task(tick())
    await asyncio.to_thread(helper)
    await task
"""


class TestSpawnEdges:
    def test_kinds_and_payloads_resolve(self, tmp_path):
        model = model_for(program_of(tmp_path, SPAWN_SRC))
        by_kind = {e.kind: e.payload for e in model.spawns}
        assert by_kind["task"] == "mod.tick"
        assert by_kind["offload"] == "mod.helper"
        assert by_kind["thread"] == "mod.Coordinator.work"

    def test_roots_include_payloads_and_spawners(self, tmp_path):
        model = model_for(program_of(tmp_path, SPAWN_SRC))
        roots = model.concurrency_roots()
        assert {"mod.tick", "mod.helper", "mod.Coordinator.work"} <= roots
        assert {"mod.main", "mod.Coordinator.start"} <= roots

    def test_thread_context_excludes_async(self, tmp_path):
        model = model_for(program_of(tmp_path, SPAWN_SRC))
        ctx = model.thread_context()
        assert "mod.Coordinator.work" in ctx
        assert "mod.helper" in ctx
        assert "mod.tick" not in ctx
        assert "mod.main" not in ctx

    def test_async_functions_and_await_points(self, tmp_path):
        model = model_for(program_of(tmp_path, SPAWN_SRC))
        assert {"mod.tick", "mod.main"} <= model.async_functions
        kinds = [p.kind for p in model.await_points["mod.main"]]
        assert kinds == ["await", "await"]
        assert not any(
            p.in_transaction
            for points in model.await_points.values()
            for p in points
        )


LOCK_SRC = """\
import threading

LOCK = threading.Lock()
ITEMS: list[int] = []


def _locked_append(n: int) -> None:
    ITEMS.append(n)


def add(n: int) -> None:
    with LOCK:
        _locked_append(n)


def add_many(ns: list[int]) -> None:
    with LOCK:
        for n in ns:
            _locked_append(n)
"""


class TestLocksets:
    def test_entry_lockset_meet_over_callers(self, tmp_path):
        model = model_for(program_of(tmp_path, LOCK_SRC))
        assert model.module_locks == {"mod": frozenset({"LOCK"})}
        assert model.entry_locksets["mod._locked_append"] == frozenset(
            {"mod.LOCK"}
        )

    def test_one_bare_caller_breaks_the_meet(self, tmp_path):
        bare = LOCK_SRC + "\n\ndef sneak(n: int) -> None:\n    _locked_append(n)\n"
        model = model_for(program_of(tmp_path, bare))
        assert "mod._locked_append" not in model.entry_locksets

    def test_lock_attr_harvest(self, tmp_path):
        model = model_for(program_of(tmp_path, SPAWN_SRC))
        assert model.lock_attrs == {
            "mod.Coordinator": frozenset({"_lock"})
        }
