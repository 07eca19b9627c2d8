"""Reporter output shapes (text footer, JSON schema, GitHub annotations)."""

import json
from pathlib import Path

from repro.analysis import lint_paths, render_json, render_text
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.reporters import ScanSummary, counts_by_code, render_github

FIXTURES = Path(__file__).parent / "fixtures"


class TestJsonReporter:
    def test_document_schema(self):
        diags, summary = lint_paths([str(FIXTURES / "rl5_positive.py")])
        doc = json.loads(render_json(diags, summary))
        assert doc["version"] == 1
        assert doc["tool"] == "repro-lint"
        assert doc["files_scanned"] == 1
        assert doc["files_failed"] == 0
        assert doc["summary"]["RL5"] >= 3
        for entry in doc["diagnostics"]:
            assert set(entry) == {
                "path", "line", "col", "code", "rule", "message"
            }

    def test_diagnostics_are_sorted(self):
        diags, summary = lint_paths([str(FIXTURES)])
        doc = json.loads(render_json(diags, summary))
        keys = [
            (e["path"], e["line"], e["col"], e["code"])
            for e in doc["diagnostics"]
        ]
        assert keys == sorted(keys)

    def test_clean_run_has_empty_summary(self):
        diags, summary = lint_paths([str(FIXTURES / "rl1_negative.py")])
        doc = json.loads(render_json(diags, summary))
        assert doc["summary"] == {}
        assert doc["diagnostics"] == []


class TestTextReporter:
    def test_footer_counts_by_code(self):
        diags, summary = lint_paths([str(FIXTURES / "rl5_positive.py")])
        text = render_text(diags, summary)
        assert "repro-lint:" in text
        assert "RL5:" in text

    def test_clean_footer(self):
        text = render_text([], ScanSummary(files_scanned=3, rules_run=["RL1"]))
        assert "clean" in text

    def test_counts_by_code_sorted(self):
        diags, _ = lint_paths([str(FIXTURES)])
        counts = counts_by_code(diags)
        assert list(counts) == sorted(counts)
        assert sum(counts.values()) == len(diags)


class TestGithubReporter:
    def test_annotation_shape_and_one_based_columns(self):
        diags, summary = lint_paths([str(FIXTURES / "rl1_positive.py")])
        lines = render_github(diags, summary).splitlines()
        errors = [ln for ln in lines if ln.startswith("::error ")]
        assert len(errors) == len(diags)
        for diag, line in zip(sorted(diags), errors):
            assert f"file={diag.path}" in line
            assert f"line={diag.line}" in line
            assert f"col={diag.col + 1}" in line
            assert f"title={diag.code} {diag.rule}" in line
        assert lines[-1].startswith("::notice title=repro-lint::")

    def test_message_and_property_escaping(self):
        diag = Diagnostic(
            path="a,b.py",
            line=3,
            col=0,
            code="RL1",
            rule="x:y",
            message="50% bad\nsecond line",
        )
        out = render_github([diag], ScanSummary(files_scanned=1))
        annotation = out.splitlines()[0]
        # Newlines and percents are escaped in the message; commas and
        # colons additionally in property values.
        assert "50%25 bad%0Asecond line" in annotation
        assert "file=a%2Cb.py" in annotation
        assert "title=RL1 x%3Ay" in annotation
        assert "\n" not in annotation

    def test_clean_run_is_a_single_notice(self):
        out = render_github(
            [], ScanSummary(files_scanned=4, rules_run=["RL1", "RL2"])
        )
        assert out.splitlines() == [
            "::notice title=repro-lint::clean (4 file(s), 2 rule(s))"
        ]
