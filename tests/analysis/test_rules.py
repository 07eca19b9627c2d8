"""Per-rule fixture sweep: each code fires on its positive fixture and
stays silent on its negative one (which is additionally fully clean, so
the negatives double as executable documentation of the blessed idiom).
"""

from pathlib import Path

import pytest

from repro.analysis import lint_file, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"
CODES = ("RL1", "RL2", "RL3", "RL4", "RL5")
PROGRAM_CODES = (
    "RL6",
    "RL7",
    "RL8",
    "RL9",
    "RL10",
    "RL11",
    "RL13",
)


def codes_in(path: Path) -> set[str]:
    return {d.code for d in lint_file(str(path))}


def program_lint(path: Path):
    diags, _ = lint_paths([str(path)], interprocedural=True)
    return diags


@pytest.mark.parametrize("code", CODES)
def test_positive_fixture_fires(code):
    found = codes_in(FIXTURES / f"{code.lower()}_positive.py")
    assert code in found


@pytest.mark.parametrize("code", CODES)
def test_negative_fixture_is_clean(code):
    diags = lint_file(str(FIXTURES / f"{code.lower()}_negative.py"))
    assert diags == []


@pytest.mark.parametrize("code", PROGRAM_CODES)
def test_program_positive_fixture_fires(code):
    diags = program_lint(FIXTURES / f"{code.lower()}_positive.py")
    assert code in {d.code for d in diags}


@pytest.mark.parametrize("code", PROGRAM_CODES)
def test_program_negative_fixture_is_clean(code):
    diags = program_lint(FIXTURES / f"{code.lower()}_negative.py")
    assert diags == []


class TestRuleDetail:
    def test_rl1_flags_each_mutation_site(self):
        diags = [
            d for d in lint_file(str(FIXTURES / "rl1_positive.py"))
            if d.code == "RL1"
        ]
        # .x write, .y write, .cells.pop(...)
        assert len(diags) == 3

    def test_rl2_covers_all_hazard_families(self):
        messages = " ".join(
            d.message
            for d in lint_file(str(FIXTURES / "rl2_positive.py"))
            if d.code == "RL2"
        )
        assert "set iterated" in messages
        assert "ambient" in messages  # random.random
        assert "wall-clock" in messages  # time in control flow
        assert "entropy" in messages  # os.urandom
        assert "hash()" in messages  # builtin hash

    def test_rl3_flags_swallow_and_unscoped_mutation(self):
        messages = [
            d.message
            for d in lint_file(str(FIXTURES / "rl3_positive.py"))
            if d.code == "RL3"
        ]
        assert any("broad `except Exception:`" in m for m in messages)
        assert any("bare `except:`" in m for m in messages)
        assert any("outside a Transaction scope" in m for m in messages)

    def test_rl4_flags_raise_and_class(self):
        messages = [
            d.message
            for d in lint_file(str(FIXTURES / "rl4_positive.py"))
            if d.code == "RL4"
        ]
        assert any("raise RuntimeError" in m for m in messages)
        assert any("ShardPuncture" in m for m in messages)

    def test_rl5_flags_signature_and_bare_generic(self):
        messages = [
            d.message
            for d in lint_file(str(FIXTURES / "rl5_positive.py"))
            if d.code == "RL5"
        ]
        assert any("unannotated parameter" in m for m in messages)
        assert any("no return annotation" in m for m in messages)
        assert any("bare `dict`" in m for m in messages)

    def test_parse_error_is_a_diagnostic_not_a_crash(self):
        diags = lint_file("broken.py", source="def f(:\n")
        assert [d.code for d in diags] == ["E999"]

    # ------------------------------------------------------------------
    # RL2 dataflow-lite regressions (scope fences + ordering demotion)
    def test_rl2_sorted_rebind_is_not_flagged(self):
        diags = lint_file(
            "probe.py",
            source=(
                "def drain(ids: set[int]) -> list[int]:\n"
                "    pending = set(ids)\n"
                "    pending = sorted(pending)\n"
                "    out: list[int] = []\n"
                "    for item in pending:\n"
                "        out.append(item)\n"
                "    return out\n"
            ),
        )
        assert [d for d in diags if d.code == "RL2"] == []

    def test_rl2_multiline_sorted_alias_is_not_flagged(self):
        diags = lint_file(
            "probe.py",
            source=(
                "def merge(seen: set[str], extra: set[str]) -> list[str]:\n"
                "    merged = seen | extra\n"
                "    merged = sorted(\n"
                "        merged\n"
                "    )\n"
                "    return [name for name in merged]\n"
            ),
        )
        assert [d for d in diags if d.code == "RL2"] == []

    def test_rl2_set_names_do_not_leak_across_scopes(self):
        diags = lint_file(
            "probe.py",
            source=(
                "def produce() -> set[int]:\n"
                "    nodes = {1, 2}\n"
                "    return nodes\n"
                "def consume(nodes: list[int]) -> list[int]:\n"
                "    return [n for n in nodes]\n"
            ),
        )
        assert [d for d in diags if d.code == "RL2"] == []

    def test_rl2_true_positive_still_fires(self):
        diags = lint_file(
            "probe.py",
            source=(
                "def drain(pending: set[str]) -> list[str]:\n"
                "    out: list[str] = []\n"
                "    for item in pending:\n"
                "        out.append(item)\n"
                "    return out\n"
            ),
        )
        assert any(d.code == "RL2" for d in diags)

    # ------------------------------------------------------------------
    # Program-rule message detail
    def test_rl6_names_each_violation_kind(self):
        diags = program_lint(FIXTURES / "rl6_positive.py")
        messages = " ".join(d.message for d in diags if d.code == "RL6")
        assert "lambda" in messages
        assert "closure" in messages
        assert "bound method" in messages
        assert "live Design" in messages
        assert "open file handle" in messages

    def test_rl7_reports_the_chain_at_the_root(self):
        diags = [
            d for d in program_lint(FIXTURES / "rl7_positive.py")
            if d.code == "RL7"
        ]
        assert len(diags) == 1
        assert "optimize" in diags[0].message
        assert "->" in diags[0].message
        assert "Transaction" in diags[0].message

    def test_rl8_covers_global_and_class_state(self):
        messages = " ".join(
            d.message
            for d in program_lint(FIXTURES / "rl8_positive.py")
            if d.code == "RL8"
        )
        assert "subscript" in messages
        assert "`global COUNT`" in messages
        assert "class-level mutable attribute" in messages
        assert ".append()" in messages

    def test_rl9_covers_all_three_shapes(self):
        messages = [
            d.message
            for d in program_lint(FIXTURES / "rl9_positive.py")
            if d.code == "RL9"
        ]
        assert len(messages) == 3
        assert any("await inside a Transaction scope" in m for m in messages)
        assert any("without an immediate await" in m for m in messages)
        assert any("task spawned inside a Transaction" in m for m in messages)

    def test_rl10_names_each_blocking_reason(self):
        messages = [
            d.message
            for d in program_lint(FIXTURES / "rl10_positive.py")
            if d.code == "RL10"
        ]
        assert len(messages) == 3
        assert any("blocking file IO" in m for m in messages)
        assert any("transitively mutates the design" in m for m in messages)
        assert any("blocking call time.sleep" in m for m in messages)

    def test_rl11_covers_lockset_and_loop_touches(self):
        messages = [
            d.message
            for d in program_lint(FIXTURES / "rl11_positive.py")
            if d.code == "RL11"
        ]
        assert len(messages) == 4
        assert any("inconsistent lockset" in m for m in messages)
        assert any(
            "put_nowait on an event-loop object" in m for m in messages
        )
        assert any(
            "call_soon on an event-loop object" in m for m in messages
        )
        # The lockset message names the lock the other writers hold.
        lockset = next(m for m in messages if "Tally.count" in m)
        assert "Tally._lock" in lockset
        # A write through a local alias of `self._leases` is one too.
        alias = next(m for m in messages if "Leases._leases" in m)
        assert "Leases.renew holds no lock" in alias

    def test_rl11_sees_writes_through_a_loop_alias(self, tmp_path):
        source = (FIXTURES / "rl11_positive.py").read_text().replace(
            "        lease = self._leases.get(key)\n"
            "        if lease is not None:\n"
            "            lease.deadline = now\n",
            "        for lease in self._leases.values():\n"
            "            lease.deadline = now\n",
        )
        assert "self._leases.values()" in source
        path = tmp_path / "rl11_loop_alias.py"
        path.write_text(source)
        messages = [
            d.message for d in program_lint(path) if d.code == "RL11"
        ]
        assert any("Leases.renew holds no lock" in m for m in messages)

    def test_rl13_covers_each_leak_flavor(self):
        messages = [
            d.message
            for d in program_lint(FIXTURES / "rl13_positive.py")
            if d.code == "RL13"
        ]
        assert any("exception path" in m for m in messages)
        assert any("dropped by reassigning" in m for m in messages)
        assert any("path to function exit" in m for m in messages)
        # Each flavor names what was acquired.
        joined = " ".join(messages)
        assert "socket `sock`" in joined
        assert "file handle `fh`" in joined
        assert "lock `self._lock`" in joined

    def test_rl13_reports_at_the_acquisition_site(self):
        diags = [
            d
            for d in program_lint(FIXTURES / "rl13_positive.py")
            if d.code == "RL13"
        ]
        source = (FIXTURES / "rl13_positive.py").read_text()
        lines = source.splitlines()
        for diag in diags:
            text = lines[diag.line - 1]
            assert (
                "create_connection" in text
                or "open(" in text
                or ".acquire(" in text
            )
