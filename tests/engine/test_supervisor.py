"""Supervisor paths: crash, timeout, escalation, fallback, quarantine.

Every recovery scenario must satisfy the engine's determinism contract:
a run that survives injected faults produces coordinates byte-identical
to a fault-free run (retried shards reuse their derived seeds).
"""

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.checker import verify_placement
from repro.core import Legalizer, LegalizerConfig
from repro.engine import EngineConfig, legalize_sharded
from repro.testing import ShardFaultSpec, design_state_digest

GEN = GeneratorConfig(num_cells=1200, target_density=0.5, seed=4)
CFG = LegalizerConfig(seed=1)

#: Fast-retry supervision knobs so the suite does not sleep for real.
ENG = dict(
    workers=2, shards=2, serial_threshold=0,
    backoff_base_s=0.01, backoff_max_s=0.05,
)


def fresh_design():
    return generate_design(GEN)


def coords(design):
    return [(c.name, c.x, c.y) for c in design.cells]


@pytest.fixture(scope="module")
def reference():
    """Coordinates and digest of the fault-free workers=2 run."""
    design = fresh_design()
    result = legalize_sharded(design, CFG, EngineConfig(**ENG))
    assert result.parallel
    return coords(design), design_state_digest(design)


class TestCrashRecovery:
    def test_worker_crash_is_contained_and_retried(self, reference):
        """A child that os._exit()s mid-shard is detected as a crash,
        the shard is retried, and the final placement is byte-identical
        to the fault-free run."""
        ref_coords, ref_digest = reference
        design = fresh_design()
        result = legalize_sharded(
            design, CFG, EngineConfig(**ENG),
            fault=ShardFaultSpec(shard_id=0, mode="crash", attempts=1),
        )
        assert result.parallel
        report = result.supervision
        assert report.crashes == 1
        assert report.retries == 1
        assert not report.serial_fallback
        # The crash attempt is in the log with its exit code.
        crash = [a for a in report.attempts if a.status == "crash"]
        assert len(crash) == 1 and crash[0].shard_id == 0
        assert "exitcode 13" in crash[0].detail
        assert verify_placement(design) == []
        assert coords(design) == ref_coords
        assert design_state_digest(design) == ref_digest

    def test_crash_attempt_records_backoff(self):
        design = fresh_design()
        result = legalize_sharded(
            design, CFG, EngineConfig(**ENG),
            fault=ShardFaultSpec(shard_id=1, mode="crash", attempts=1),
        )
        assert result.supervision.backoff_total_s > 0

    def test_worker_exception_is_retried_with_traceback(self, reference):
        """A worker that *raises* (rather than dies) ships its traceback
        home and is retried the same way."""
        ref_coords, _ = reference
        design = fresh_design()
        result = legalize_sharded(
            design, CFG, EngineConfig(**ENG),
            fault=ShardFaultSpec(shard_id=0, mode="raise", attempts=1),
        )
        report = result.supervision
        assert report.errors == 1 and report.retries == 1
        errors = [a for a in report.attempts if a.status == "error"]
        assert "WorkerFault" in errors[0].detail  # the remote traceback
        assert coords(design) == ref_coords


class TestTimeouts:
    def test_hung_worker_is_killed_and_retried(self, reference):
        """A wedged worker exceeds shard_timeout_s, is terminated, and
        the retry produces the byte-identical placement."""
        ref_coords, ref_digest = reference
        design = fresh_design()
        result = legalize_sharded(
            design, CFG,
            EngineConfig(**ENG, shard_timeout_s=1.5),
            fault=ShardFaultSpec(
                shard_id=1, mode="hang", attempts=1, sleep_s=60.0
            ),
        )
        report = result.supervision
        assert report.timeouts == 1
        assert report.retries == 1
        timeouts = [a for a in report.attempts if a.status == "timeout"]
        assert timeouts[0].shard_id == 1
        assert coords(design) == ref_coords
        assert design_state_digest(design) == ref_digest

    def test_no_timeout_by_default(self):
        assert EngineConfig().shard_timeout_s is None

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            EngineConfig(shard_timeout_s=0)


class TestDegradationLadder:
    def test_persistent_crash_escalates_in_process(self, reference):
        """crash fires only in worker processes: when every pool attempt
        dies, the in-process rung runs the shard clean — and still
        byte-identical (same derived seed)."""
        ref_coords, _ = reference
        design = fresh_design()
        result = legalize_sharded(
            design, CFG,
            EngineConfig(**ENG, max_shard_retries=1),
            fault=ShardFaultSpec(shard_id=0, mode="crash", attempts=99),
        )
        report = result.supervision
        assert report.crashes == 2  # initial + 1 retry
        assert report.inprocess_escalations == 1
        assert not report.serial_fallback
        assert result.parallel
        ok_inproc = [
            a for a in report.attempts
            if a.rung == "inprocess" and a.status == "ok"
        ]
        assert len(ok_inproc) == 1
        assert coords(design) == ref_coords

    def test_unrecoverable_shard_degrades_to_serial(self):
        """raise fires on every rung: pool retries and the in-process
        re-run all fail, so the run degrades to the plain sequential
        driver — and matches it exactly."""
        sequential = fresh_design()
        Legalizer(sequential, CFG).run()

        design = fresh_design()
        result = legalize_sharded(
            design, CFG,
            EngineConfig(**ENG, max_shard_retries=1),
            fault=ShardFaultSpec(shard_id=0, mode="raise", attempts=99),
        )
        report = result.supervision
        assert report.serial_fallback
        assert report.failed_shards == [0]
        assert result.degraded and not result.parallel
        assert verify_placement(design) == []
        assert coords(design) == coords(sequential)

    def test_summary_mentions_the_ladder(self):
        design = fresh_design()
        result = legalize_sharded(
            design, CFG, EngineConfig(**ENG),
            fault=ShardFaultSpec(shard_id=0, mode="crash", attempts=1),
        )
        text = result.supervision.summary()
        assert "crashes=1" in text and "retries=1" in text


class TestQuarantine:
    @staticmethod
    def _impossible_design():
        """A design with one cell wider than the die: never placeable."""
        from tests.conftest import add_unplaced, make_design

        design = make_design(num_rows=2, row_width=12, name="jam")
        add_unplaced(design, 3, 1, 0.0, 0.0, name="ok0")
        add_unplaced(design, 20, 1, 4.0, 1.0, name="giant")
        add_unplaced(design, 3, 1, 8.0, 1.0, name="ok1")
        return design

    @staticmethod
    def _blocked_design():
        """Blockages leave a 4-site gap: the 10-wide cell can never fit,
        but it is narrower than a stripe, so the partitioner still
        yields two shards (unlike a wider-than-die cell, which caps the
        shard count at 1)."""
        from repro.geometry import Rect
        from tests.conftest import add_unplaced, make_design

        design = make_design(
            num_rows=2, row_width=40,
            blockages=[Rect(0, 1, 40, 1), Rect(0, 0, 36, 1)],
            name="blocked",
        )
        add_unplaced(design, 2, 1, 37.0, 0.0, name="ok0")
        add_unplaced(design, 10, 1, 10.0, 0.0, name="giant")
        return design

    def test_serial_quarantine_completes_with_report(self):
        design = self._impossible_design()
        cfg = LegalizerConfig(rx=4, ry=1, max_rounds=3, quarantine=True)
        result = Legalizer(design, cfg).run()
        assert result.stuck.names == ["giant"]
        entry = result.stuck.cells[0]
        assert entry.origin == "serial"
        assert entry.rounds == 3
        assert entry.width == 20
        assert result.failed_cells == ["giant"]
        # Partial legality: the placeable cells are placed and legal.
        assert result.placed == 2
        assert verify_placement(design, require_all_placed=False) == []

    def test_quarantine_off_still_raises(self):
        from repro.core import LegalizationError

        design = self._impossible_design()
        cfg = LegalizerConfig(rx=4, ry=1, max_rounds=3)
        with pytest.raises(LegalizationError):
            Legalizer(design, cfg).run()

    def test_engine_seam_quarantine(self):
        """The engine completes with the stuck cell on EngineResult.stuck
        (origin 'seam') instead of raising mid-run."""
        design = self._blocked_design()
        cfg = LegalizerConfig(rx=4, ry=1, max_rounds=3, quarantine=True)
        result = legalize_sharded(
            design, cfg,
            EngineConfig(workers=1, shards=2, serial_threshold=0,
                         halo_sites=4),
        )
        assert result.parallel
        assert result.stuck.names == ["giant"]
        assert result.stuck.cells[0].origin == "seam"
        assert result.result.placed == 1
        assert verify_placement(design, require_all_placed=False) == []

    def test_stuck_report_summary(self):
        design = self._impossible_design()
        cfg = LegalizerConfig(rx=4, ry=1, max_rounds=3, quarantine=True)
        result = Legalizer(design, cfg).run()
        assert "quarantined 1 cells" in result.stuck.summary()
        assert "giant" in result.stuck.summary()

    def test_clean_run_has_empty_report(self):
        design = fresh_design()
        cfg = LegalizerConfig(seed=1, quarantine=True)
        result = legalize_sharded(design, cfg, EngineConfig(**ENG))
        assert not result.stuck
        assert len(result.stuck) == 0
        assert result.stuck.summary() == "quarantined 0 cells"


class TestFaultSpecParsing:
    def test_env_roundtrip(self):
        from repro.testing import worker_fault_from_env

        spec = worker_fault_from_env("crash,shard=3,attempts=2,exitcode=7")
        assert spec == ShardFaultSpec(
            shard_id=3, mode="crash", attempts=2, exitcode=7
        )
        assert worker_fault_from_env("") is None
        hang = worker_fault_from_env("hang,shard=0,sleep=1.5")
        assert hang.mode == "hang" and hang.sleep_s == 1.5

    def test_env_rejects_malformed(self):
        from repro.testing import worker_fault_from_env

        with pytest.raises(ValueError):
            worker_fault_from_env("crash")  # no shard
        with pytest.raises(ValueError):
            worker_fault_from_env("crash,shard=0,bogus=1")
        with pytest.raises(ValueError):
            worker_fault_from_env("meltdown,shard=0")

    def test_disarmed_attempt_runs_clean(self):
        spec = ShardFaultSpec(shard_id=0, mode="raise", attempts=1)
        assert spec.armed_for(0, 1)
        assert not spec.armed_for(0, 2)
        assert not spec.armed_for(1, 1)


# ----------------------------------------------------------------------
# Backoff policy (shared by the supervisor and the TCP transport)
# ----------------------------------------------------------------------
class TestBackoffPolicy:
    def test_jitter_is_seed_deterministic(self):
        """Same (engine, seed, attempt) always yields the same delay —
        a retry schedule must replay identically across runs."""
        from repro.engine import backoff_delay_s

        engine = EngineConfig(backoff_base_s=0.1, backoff_max_s=10.0)
        for attempt in (1, 2, 3, 7):
            first = backoff_delay_s(engine, seed=42, attempt=attempt)
            again = backoff_delay_s(engine, seed=42, attempt=attempt)
            assert first == again

    def test_delay_never_exceeds_cap(self):
        """Jitter only ever lengthens a delay, and the cap bounds it."""
        from repro.engine import backoff_delay_s
        from repro.engine.supervisor import BACKOFF_JITTER

        engine = EngineConfig(backoff_base_s=1.0, backoff_max_s=3.0)
        for seed in range(25):
            for attempt in range(1, 12):
                delay = backoff_delay_s(engine, seed, attempt)
                base = min(2.0 ** (attempt - 1), 3.0)
                assert base <= delay <= min(base * (1 + BACKOFF_JITTER), 3.0)

    def test_delays_grow_then_saturate(self):
        from repro.engine import backoff_delay_s
        from repro.engine.supervisor import BACKOFF_JITTER

        engine = EngineConfig(backoff_base_s=0.5, backoff_max_s=4.0)
        delays = [
            backoff_delay_s(engine, seed=1, attempt=k) for k in (1, 2, 3, 4, 5)
        ]
        for delay, base in zip(delays, [0.5, 1.0, 2.0]):
            assert base <= delay <= base * (1 + BACKOFF_JITTER)
        assert delays[3:] == [4.0, 4.0]  # saturated at the cap

    def test_seeds_decorrelate_retry_storms(self):
        """Shards retried at the same moment must not thunder in
        lockstep: distinct shard seeds draw distinct delays for the
        same attempt number."""
        from repro.engine import backoff_delay_s

        engine = EngineConfig(backoff_base_s=1.0, backoff_max_s=60.0)
        delays = {backoff_delay_s(engine, seed, attempt=2) for seed in range(8)}
        assert len(delays) > 1


class TestSpawnCleanup:
    def test_pipe_close_failure_reaps_the_started_child(self):
        """If closing the parent's copy of the write end fails after
        ``process.start()``, the just-started child must be terminated
        and joined instead of orphaned."""
        from dataclasses import dataclass as _dataclass

        from repro.engine.supervisor import _spawn

        @_dataclass
        class FakeTask:
            shard_id: int = 0
            attempt: int = 1

        class FakeProcess:
            def __init__(self):
                self.started = False
                self.terminated = False
                self.joined = False

            def start(self):
                self.started = True

            def terminate(self):
                self.terminated = True

            def join(self, timeout=None):
                self.joined = True

        class BadSend:
            def close(self):
                raise OSError("pipe close failed")

        proc = FakeProcess()

        class FakeCtx:
            def Pipe(self, duplex=False):
                return object(), BadSend()

            def Process(self, **kwargs):
                return proc

        with pytest.raises(OSError, match="pipe close failed"):
            _spawn(FakeCtx(), FakeTask())
        assert proc.started
        assert proc.terminated
        assert proc.joined
