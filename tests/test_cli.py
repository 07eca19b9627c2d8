"""Unit tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.io import read_bookshelf


@pytest.fixture
def generated(tmp_path):
    out = tmp_path / "gen"
    rc = main(
        [
            "generate",
            "--cells", "120",
            "--density", "0.4",
            "--seed", "7",
            "--name", "clitest",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out / "clitest.aux"


class TestGenerate:
    def test_generates_bundle(self, generated):
        design = read_bookshelf(str(generated))
        assert len(design.cells) == 120
        assert all(not c.is_placed for c in design.cells)


class TestLegalize:
    def test_mll_legalize_roundtrip(self, generated, tmp_path, capsys):
        out = tmp_path / "legal"
        rc = main(["legalize", str(generated), "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "violations 0" in captured
        design = read_bookshelf(str(out / "clitest.aux"))
        assert all(c.is_placed for c in design.cells)

    @pytest.mark.parametrize("algo", ["optimal", "abacus", "tetris"])
    def test_other_algorithms(self, generated, algo):
        assert main(["legalize", str(generated), "--algorithm", algo]) == 0

    def test_relaxed_flag(self, generated):
        assert main(["legalize", str(generated), "--relaxed"]) == 0

    def test_workers_flag_small_design_falls_back(self, generated, capsys):
        """120 cells sit below the serial threshold: the engine must
        report the sequential fallback and still legalize."""
        rc = main(["legalize", str(generated), "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sequential fallback" in out
        assert "violations 0" in out

    def test_workers_and_shards_flags_parallel_path(
        self, generated, tmp_path, capsys
    ):
        out = tmp_path / "par"
        rc = main(
            [
                "legalize", str(generated),
                "--workers", "2",
                "--shards", "2",
                "--serial-threshold", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "engine: transport=local shards=2 workers=2" in captured
        assert "violations 0" in captured
        assert main(["check", str(out / "clitest.aux")]) == 0
        capsys.readouterr()


class TestStartup:
    def test_import_leaves_scipy_unloaded(self):
        # Only --algorithm optimal|milp|abacus|tetris needs the
        # baselines, and through them scipy; no other run should pay
        # for importing it.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, repro.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.stdout.strip() == "False"

    def test_legalize_help_has_no_kernel_switch(self, capsys):
        with pytest.raises(SystemExit):
            main(["legalize", "--help"])
        out = capsys.readouterr().out
        assert "--exact" in out
        assert "--kernel" not in out

    def test_legalize_help_has_no_supervise_switch(self, capsys):
        # Every workers > 1 run is supervised.
        with pytest.raises(SystemExit):
            main(["legalize", "--help"])
        out = capsys.readouterr().out
        assert "--shard-retries" in out
        assert "--no-supervise" not in out


class TestOptionValidation:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rx", "0"], "rx must be >= 1"),
            (["--workers", "2", "--shard-retries", "-1"],
             "max_shard_retries must be >= 0"),
            (["--workers", "2", "--heartbeat-interval", "40"],
             "heartbeat_interval_s must be smaller than lease_ttl_s"),
            (["--checkpoint", "run.ckpt", "--checkpoint-every", "0"],
             "checkpoint cadence must be >= 1"),
        ],
        ids=["rx", "shard-retries", "heartbeat-interval", "checkpoint-every"],
    )
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, flags, message):
        """A bad option value exits 2 with argparse's error line — before
        the design is read, so a missing file does not mask it."""
        with pytest.raises(SystemExit) as excinfo:
            main(["legalize", str(tmp_path / "missing.aux"), *flags])
        assert excinfo.value.code == 2
        assert f"repro legalize: error: {message}" in capsys.readouterr().err


class TestLint:
    def test_github_format_is_forwarded(self, capsys):
        # `repro lint` hands its argument tail to repro.analysis.runner,
        # so every documented option (here --format github) is accepted.
        geometry = os.path.join(os.path.dirname(repro.__file__), "geometry")
        rc = main(["lint", "--no-cache", "--format", "github", geometry])
        assert rc == 0
        assert "::notice title=repro-lint::clean" in capsys.readouterr().out


class TestLegalizeFailureReporting:
    def test_partial_result_reported_on_failure(self, tmp_path, capsys):
        """A run that exhausts its retry budget exits 1 and prints the
        partial result carried by LegalizationError instead of dying
        with a traceback."""
        from repro.io import write_bookshelf
        from tests.conftest import add_unplaced, make_design

        d = make_design(num_rows=1, row_width=10, name="jam")
        add_unplaced(d, 3, 1, 0.0, 0.0, name="ok")
        add_unplaced(d, 20, 1, 0.0, 0.0, name="giant")  # wider than die
        aux = write_bookshelf(d, str(tmp_path / "jam"))
        rc = main(["legalize", aux, "--rx", "4", "--ry", "0"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "legalization FAILED" in out
        assert "giant" in out  # names the stuck cell
        assert "1 placed" in out  # the partial count survived
        assert "unplaced 1" in out  # stats line still printed

    def test_audit_flag_accepted(self, generated):
        assert main(["legalize", str(generated), "--audit"]) == 0


class TestCheck:
    def test_illegal_input_reported(self, generated, capsys):
        rc = main(["check", str(generated)])
        assert rc == 1  # unplaced cells are violations
        assert "violations" in capsys.readouterr().out

    def test_legal_after_legalization(self, generated, tmp_path, capsys):
        out = tmp_path / "legal"
        main(["legalize", str(generated), "--out", str(out)])
        rc = main(["check", str(out / "clitest.aux")])
        assert rc == 0
        assert "legal" in capsys.readouterr().out


class TestGp:
    def test_gp_then_legalize(self, generated, tmp_path, capsys):
        placed = tmp_path / "gp"
        rc = main(["gp", str(generated), "--out", str(placed),
                   "--iterations", "6"])
        assert rc == 0
        assert "HPWL" in capsys.readouterr().out
        rc = main(["legalize", str(placed / "clitest.aux")])
        assert rc == 0


class TestShowAndStats:
    def test_ascii_show(self, generated, tmp_path, capsys):
        out = tmp_path / "legal"
        main(["legalize", str(generated), "--out", str(out)])
        rc = main(["show", str(out / "clitest.aux"), "--window", "0", "0", "20", "4"])
        assert rc == 0
        art = capsys.readouterr().out
        assert "|" in art

    def test_svg_show(self, generated, tmp_path):
        svg = tmp_path / "p.svg"
        rc = main(["show", str(generated), "--gp", "--svg", str(svg)])
        assert rc == 0
        assert svg.read_text().startswith("<svg")

    def test_stats(self, generated, capsys):
        rc = main(["stats", str(generated)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cells:     120" in out
        assert "density" in out

class TestFaultToleranceFlags:
    PAR = ["--workers", "2", "--shards", "2", "--serial-threshold", "0"]

    def test_supervision_knobs_accepted(self, generated, capsys):
        rc = main(
            ["legalize", str(generated), *self.PAR,
             "--shard-timeout", "30", "--shard-retries", "1"]
        )
        assert rc == 0
        assert "violations 0" in capsys.readouterr().out

    def test_quarantine_flag_reports_empty(self, generated, capsys):
        rc = main(["legalize", str(generated), "--quarantine"])
        assert rc == 0
        assert "quarantined 0 cells" in capsys.readouterr().out

    def test_env_fault_chaos_run_recovers(
        self, generated, capsys, monkeypatch
    ):
        """The documented chaos drill: crash shard 0's first worker via
        the environment hook; the supervised run must self-heal."""
        monkeypatch.setenv("REPRO_WORKER_FAULT", "crash,shard=0,attempts=1")
        rc = main(["legalize", str(generated), *self.PAR])
        assert rc == 0
        out = capsys.readouterr().out
        assert "crashes=1" in out
        assert "retries=1" in out
        assert "violations 0" in out
        assert "unplaced 0" in out

    def test_checkpoint_then_resume(self, generated, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        rc = main(
            ["legalize", str(generated), *self.PAR,
             "--checkpoint", str(ckpt)]
        )
        assert rc == 0
        assert ckpt.exists()
        first = capsys.readouterr().out
        assert "violations 0" in first

        rc = main(
            ["legalize", str(generated), *self.PAR, "--resume", str(ckpt)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resumed=2" in out  # both shards came from the snapshot
        assert "violations 0" in out

    def test_resume_requires_matching_checkpoint_path(
        self, generated, tmp_path
    ):
        with pytest.raises(SystemExit, match="same file"):
            main(
                ["legalize", str(generated), *self.PAR,
                 "--checkpoint", str(tmp_path / "a.ckpt"),
                 "--resume", str(tmp_path / "b.ckpt")]
            )

    def test_checkpoint_every_flag(self, generated, tmp_path, capsys):
        ckpt = tmp_path / "run.ckpt"
        rc = main(
            ["legalize", str(generated), *self.PAR,
             "--checkpoint", str(ckpt), "--checkpoint-every", "2"]
        )
        assert rc == 0
        assert ckpt.exists()
        capsys.readouterr()


class TestGracefulShutdown:
    """Unit coverage of the signal path (the handler itself is
    exercised end-to-end by the CI chaos job via ``kill``)."""

    def test_report_without_checkpoint(self, capsys):
        import signal

        from repro.cli import GracefulShutdown, _report_shutdown

        rc = _report_shutdown(GracefulShutdown(signal.SIGINT), None)
        assert rc == 128 + signal.SIGINT
        out = capsys.readouterr().out
        assert "interrupted by SIGINT" in out
        assert "--checkpoint" in out  # the how-to-make-resumable hint

    def test_report_before_shard_phase(self, tmp_path, capsys):
        import signal

        from repro.cli import GracefulShutdown, _report_shutdown
        from repro.engine import CheckpointManager

        manager = CheckpointManager(str(tmp_path / "x.ckpt"))
        rc = _report_shutdown(GracefulShutdown(signal.SIGTERM), manager)
        assert rc == 128 + signal.SIGTERM
        out = capsys.readouterr().out
        assert "before the shard phase" in out

    def test_report_flushes_bound_checkpoint(self, tmp_path, capsys):
        import signal

        from repro.bench import GeneratorConfig, generate_design
        from repro.cli import GracefulShutdown, _report_shutdown
        from repro.core import LegalizerConfig
        from repro.engine import (
            CheckpointManager,
            EngineConfig,
            load_checkpoint,
            partition_design,
        )

        design = generate_design(
            GeneratorConfig(num_cells=400, target_density=0.4, seed=2)
        )
        cfg = LegalizerConfig(seed=1)
        part = partition_design(
            design, cfg, EngineConfig(workers=2, shards=2, serial_threshold=0)
        )
        path = tmp_path / "x.ckpt"
        manager = CheckpointManager(str(path)).open(design, cfg, part)

        rc = _report_shutdown(GracefulShutdown(signal.SIGTERM), manager)
        assert rc == 128 + signal.SIGTERM
        out = capsys.readouterr().out
        assert "interrupted by SIGTERM: 0/2 shards checkpointed" in out
        assert f"--resume {path}" in out
        assert load_checkpoint(str(path)).completed == {}
