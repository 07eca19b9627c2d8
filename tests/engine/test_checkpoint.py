"""Checkpoint/resume: fingerprinting, atomic writes, resume equivalence.

The contract under test: a run that is interrupted after any subset of
shards completed can resume from its checkpoint and finish with
coordinates byte-identical to an uninterrupted run — and a checkpoint
can never be spliced into a *different* run (fingerprint mismatch).
"""

import hashlib
import os
import pickle

import pytest

from repro.bench import GeneratorConfig, generate_design
from repro.checker import verify_placement
from repro.core import LegalizerConfig
from repro.engine import (
    CheckpointError,
    CheckpointManager,
    CheckpointState,
    EngineConfig,
    ResumeMismatchError,
    legalize_sharded,
    load_checkpoint,
    partition_design,
    run_fingerprint,
    save_checkpoint,
    shard_seed,
)
from repro.engine.checkpoint import CHECKPOINT_MAGIC
from repro.testing import ShardFaultSpec, design_state_digest

GEN = GeneratorConfig(num_cells=1200, target_density=0.5, seed=4)
CFG = LegalizerConfig(seed=1)
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
    """Coordinates and digest of an uninterrupted, uncheckpointed run."""
    design = fresh_design()
    result = legalize_sharded(design, CFG, EngineConfig(**ENG))
    assert result.parallel
    return coords(design), design_state_digest(design)


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_deterministic_and_sensitive(self):
        design = fresh_design()
        engine = EngineConfig(**ENG)
        part = partition_design(design, CFG, engine)
        fp1 = run_fingerprint(design, CFG, part)
        fp2 = run_fingerprint(fresh_design(), CFG, part)
        assert fp1 == fp2  # pure function of (design, config, partition)

        other_cfg = LegalizerConfig(seed=2)
        other_part = partition_design(design, other_cfg, engine)
        assert run_fingerprint(design, other_cfg, other_part) != fp1

        moved = fresh_design()
        moved.cells[0].gp_x += 1.0
        assert run_fingerprint(moved, CFG, part) != fp1


# ----------------------------------------------------------------------
# Save / load
# ----------------------------------------------------------------------
class TestPersistence:
    @staticmethod
    def _state():
        return CheckpointState(
            fingerprint="abc", seed=1, num_shards=2,
            shard_seeds={0: shard_seed(1, 0), 1: shard_seed(1, 1)},
        )

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        state = self._state()
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.fingerprint == "abc"
        assert loaded.shard_seeds == state.shard_seeds
        assert loaded.completed == {}
        assert loaded.telemetry_watermark == 0

    def test_atomic_no_temp_leftovers(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, self._state())
        save_checkpoint(path, self._state())  # overwrite path too
        leftovers = [
            f for f in os.listdir(tmp_path) if f.startswith(".ckpt-")
        ]
        assert leftovers == []
        assert os.path.exists(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"\x80\x05 definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(str(path))

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "old.ckpt"
        body = pickle.dumps({"format": 999, "state": self._state()})
        with open(path, "wb") as handle:
            handle.write(CHECKPOINT_MAGIC)
            handle.write(hashlib.sha256(body).digest())
            handle.write(body)
        with pytest.raises(CheckpointError, match="unsupported format"):
            load_checkpoint(str(path))

    def test_truncated_snapshot_names_the_file(self, tmp_path):
        """A checkpoint cut short mid-write (disk full, SIGKILL during
        a non-atomic copy) fails the checksum and the error names the
        offending file so the operator knows what to delete."""
        path = str(tmp_path / "torn.ckpt")
        save_checkpoint(path, self._state())
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) - 7])  # lose the tail
        with pytest.raises(
            CheckpointError, match="truncated or corrupt"
        ) as excinfo:
            load_checkpoint(path)
        assert "torn.ckpt" in str(excinfo.value)
        assert "--resume" in str(excinfo.value)

    def test_flipped_byte_fails_checksum(self, tmp_path):
        """Silent bitrot inside the pickle body — not just truncation —
        is caught by the sha256 frame before unpickling runs."""
        path = str(tmp_path / "rot.ckpt")
        save_checkpoint(path, self._state())
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(path)

    def test_unframed_checkpoint_is_refused(self, tmp_path):
        """A raw pickle without the sha256 frame (or any foreign file)
        is refused before unpickling, with an error naming the file."""
        path = tmp_path / "unframed.ckpt"
        with open(path, "wb") as handle:
            pickle.dump({"format": 1, "state": self._state()}, handle)
        with pytest.raises(CheckpointError, match="no checkpoint header") as excinfo:
            load_checkpoint(str(path))
        assert "unframed.ckpt" in str(excinfo.value)


# ----------------------------------------------------------------------
# Manager basics
# ----------------------------------------------------------------------
class TestManager:
    def test_cadence_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path / "x.ckpt"), every=0)

    def test_record_before_open_raises(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "x.ckpt"))
        with pytest.raises(CheckpointError, match="before open"):
            manager.record(object())

    def test_flush_before_open_is_noop(self, tmp_path):
        path = tmp_path / "x.ckpt"
        CheckpointManager(str(path)).flush()
        assert not path.exists()

    def test_cadence_batches_writes(self, tmp_path):
        """every=2: the file appears only after the second record."""
        # Harvest two real ShardOutcomes from a checkpointed run.
        donor_path = str(tmp_path / "donor.ckpt")
        donor = fresh_design()
        legalize_sharded(
            donor, CFG, EngineConfig(**ENG),
            checkpoint=CheckpointManager(donor_path),
        )
        outcomes = load_checkpoint(donor_path).completed
        assert set(outcomes) == {0, 1}

        path = str(tmp_path / "run.ckpt")
        design = fresh_design()
        engine = EngineConfig(**ENG)
        part = partition_design(design, CFG, engine)

        manager = CheckpointManager(path, every=2)
        manager.open(design, CFG, part)
        manager.record(outcomes[0])
        assert not os.path.exists(path)
        manager.record(outcomes[1])
        assert os.path.exists(path)
        assert set(load_checkpoint(path).completed) == {0, 1}


# ----------------------------------------------------------------------
# Resume equivalence
# ----------------------------------------------------------------------
class TestResume:
    def test_full_checkpoint_resume_skips_all_shards(
        self, tmp_path, reference
    ):
        """Resuming a *finished* shard phase dispatches no workers and
        still reproduces the exact placement (seam pass re-runs)."""
        ref_coords, ref_digest = reference
        path = str(tmp_path / "run.ckpt")

        first = fresh_design()
        legalize_sharded(
            first, CFG, EngineConfig(**ENG),
            checkpoint=CheckpointManager(path),
        )
        assert coords(first) == ref_coords

        resumed = fresh_design()
        result = legalize_sharded(
            resumed, CFG, EngineConfig(**ENG),
            checkpoint=CheckpointManager(path, resume=True),
        )
        assert result.parallel
        assert sorted(result.supervision.skipped_shards) == [0, 1]
        # No pool attempt was ever dispatched.
        assert result.supervision.attempts == []
        assert coords(resumed) == ref_coords
        assert design_state_digest(resumed) == ref_digest

    def test_partial_checkpoint_reruns_only_missing_shard(
        self, tmp_path, reference
    ):
        """Drop one shard from the snapshot (simulating a kill between
        flushes): resume re-runs exactly that shard, byte-identical."""
        ref_coords, ref_digest = reference
        path = str(tmp_path / "run.ckpt")

        first = fresh_design()
        legalize_sharded(
            first, CFG, EngineConfig(**ENG),
            checkpoint=CheckpointManager(path),
        )
        state = load_checkpoint(path)
        assert set(state.completed) == {0, 1}
        del state.completed[1]
        save_checkpoint(path, state)

        resumed = fresh_design()
        result = legalize_sharded(
            resumed, CFG, EngineConfig(**ENG),
            checkpoint=CheckpointManager(path, resume=True),
        )
        assert result.supervision.skipped_shards == [0]
        dispatched = {a.shard_id for a in result.supervision.attempts}
        assert dispatched == {1}
        assert verify_placement(resumed) == []
        assert coords(resumed) == ref_coords
        assert design_state_digest(resumed) == ref_digest
        # The resumed run rewrote a complete checkpoint.
        assert set(load_checkpoint(path).completed) == {0, 1}

    def test_aborted_run_resumes_byte_identical(self, tmp_path, reference):
        """End-to-end kill/resume: the run is killed right after shard
        1's outcome is checkpointed (shard 0 keeps failing in the pool
        meanwhile), and the resume finishes the job."""
        ref_coords, ref_digest = reference
        path = str(tmp_path / "run.ckpt")

        class Killed(Exception):
            pass

        def kill_after_shard_1(state):
            if 1 in state.completed:
                raise Killed

        design = fresh_design()
        with pytest.raises(Killed):
            legalize_sharded(
                design, CFG, EngineConfig(**ENG),
                checkpoint=CheckpointManager(
                    path, on_record=kill_after_shard_1
                ),
                fault=ShardFaultSpec(shard_id=0, mode="raise", attempts=99),
            )
        state = load_checkpoint(path)
        assert set(state.completed) == {1}  # the healthy shard survived

        resumed = fresh_design()
        result = legalize_sharded(
            resumed, CFG, EngineConfig(**ENG),
            checkpoint=CheckpointManager(path, resume=True),
        )
        assert result.supervision.skipped_shards == [1]
        assert "resumed=1" in result.supervision.summary()
        assert verify_placement(resumed) == []
        assert coords(resumed) == ref_coords
        assert design_state_digest(resumed) == ref_digest

    def test_resume_refuses_different_run(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        design = fresh_design()
        legalize_sharded(
            design, CFG, EngineConfig(**ENG),
            checkpoint=CheckpointManager(path),
        )
        other = fresh_design()
        with pytest.raises(ResumeMismatchError):
            legalize_sharded(
                other, LegalizerConfig(seed=2), EngineConfig(**ENG),
                checkpoint=CheckpointManager(path, resume=True),
            )

    def test_resume_missing_file_raises(self, tmp_path):
        design = fresh_design()
        with pytest.raises(CheckpointError):
            legalize_sharded(
                design, CFG, EngineConfig(**ENG),
                checkpoint=CheckpointManager(
                    str(tmp_path / "absent.ckpt"), resume=True
                ),
            )

    def test_checkpoint_records_telemetry_watermark(self, tmp_path):
        from repro.core.instrumentation import MllTelemetry

        path = str(tmp_path / "run.ckpt")
        design = fresh_design()
        telemetry = MllTelemetry()
        legalize_sharded(
            design, CFG, EngineConfig(**ENG),
            telemetry=telemetry,
            checkpoint=CheckpointManager(path),
        )
        state = load_checkpoint(path)
        assert state.telemetry_watermark > 0
        # Watermark counts shard-phase records only (seam pass excluded).
        assert state.telemetry_watermark <= len(telemetry.records)
