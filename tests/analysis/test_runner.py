"""Runner/CLI behavior: exit codes, selection, and the self-clean gate."""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.runner import discover_files, run

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
SRC = HERE.resolve().parents[1] / "src"
CODES = ("RL1", "RL2", "RL3", "RL4", "RL5")
PROGRAM_CODES = ("RL6", "RL7", "RL8")


class TestExitCodes:
    @pytest.mark.parametrize("code", CODES)
    def test_positive_fixture_exits_nonzero(self, code, capsys):
        rc = run(
            ["--no-cache", str(FIXTURES / f"{code.lower()}_positive.py")]
        )
        capsys.readouterr()
        assert rc == 1

    def test_negative_fixtures_exit_zero(self, capsys):
        paths = [str(FIXTURES / f"{c.lower()}_negative.py") for c in CODES]
        rc = run(["--no-cache", *paths])
        capsys.readouterr()
        assert rc == 0

    @pytest.mark.parametrize("code", PROGRAM_CODES)
    def test_program_positive_fixture_exits_nonzero(self, code, capsys):
        rc = run(
            [
                "--no-cache",
                "--interprocedural",
                str(FIXTURES / f"{code.lower()}_positive.py"),
            ]
        )
        capsys.readouterr()
        assert rc == 1

    @pytest.mark.parametrize("code", PROGRAM_CODES)
    def test_program_negative_fixture_exits_zero(self, code, capsys):
        rc = run(
            [
                "--no-cache",
                "--interprocedural",
                str(FIXTURES / f"{code.lower()}_negative.py"),
            ]
        )
        capsys.readouterr()
        assert rc == 0

    def test_missing_path_is_usage_error(self, capsys):
        rc = run(["--no-cache", "no/such/path"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error" in captured.err

    def test_unknown_select_code_is_usage_error(self, capsys):
        rc = run(["--no-cache", "--select", "RL99", str(FIXTURES)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "RL99" in captured.err


class TestSelection:
    def test_select_restricts_rules(self):
        diags, summary = lint_paths(
            [str(FIXTURES / "rl2_positive.py")], select=["RL5"]
        )
        assert summary.rules_run == ["RL5"]
        assert diags == []  # the RL2 fixture is RL5-clean

    def test_ignore_drops_rules(self):
        diags, _ = lint_paths(
            [str(FIXTURES / "rl2_positive.py")], ignore=["RL2"]
        )
        assert all(d.code != "RL2" for d in diags)

    def test_select_a_program_rule_is_valid(self):
        """``--select RL7`` names a known (program) code: not a usage
        error, and without --interprocedural it simply runs no rule."""
        diags, summary = lint_paths(
            [str(FIXTURES / "rl7_positive.py")], select=["RL7"]
        )
        assert summary.rules_run == []
        assert diags == []

    def test_interprocedural_adds_program_rules(self):
        _, summary = lint_paths(
            [str(FIXTURES / "rl1_negative.py")], interprocedural=True
        )
        assert set(PROGRAM_CODES) <= set(summary.rules_run)


class TestCacheFlags:
    def test_cache_file_flag_writes_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        rc = run(
            [
                "--cache-file",
                str(cache),
                str(FIXTURES / "rl1_negative.py"),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        assert cache.exists()

    def test_no_cache_skips_the_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text("def f() -> int:\n    return 1\n")
        rc = run(["--no-cache", "ok.py"])
        capsys.readouterr()
        assert rc == 0
        assert not (tmp_path / ".repro-lint-cache.json").exists()

    def test_default_cache_lands_in_cwd(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ok.py").write_text("def f() -> int:\n    return 1\n")
        rc = run(["ok.py"])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / ".repro-lint-cache.json").exists()


class TestDiscovery:
    def test_discovery_is_sorted_and_deduplicated(self):
        twice = discover_files([str(FIXTURES), str(FIXTURES)])
        assert twice == sorted(twice)
        assert len(twice) == len(set(twice))

    def test_json_format_round_trips(self, capsys):
        rc = run(
            [
                "--no-cache",
                "--format",
                "json",
                str(FIXTURES / "rl4_positive.py"),
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["summary"].get("RL4", 0) >= 2


class TestSelfClean:
    def test_src_tree_is_self_clean(self):
        """The acceptance gate: the shipped tree has zero findings."""
        diags, summary = lint_paths([str(SRC)])
        assert summary.files_failed == 0
        assert diags == [], "\n".join(d.render() for d in diags)

    def test_src_tree_is_interprocedurally_self_clean(self):
        """The PR 5 acceptance gate: RL6–RL8 included, still zero."""
        diags, summary = lint_paths([str(SRC)], interprocedural=True)
        assert set(PROGRAM_CODES) <= set(summary.rules_run)
        assert diags == [], "\n".join(d.render() for d in diags)
