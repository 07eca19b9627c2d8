"""Render diagnostics as text (human), JSON (CI / tooling) or GitHub
Actions annotations.

Every reporter receives the *final* diagnostic list — suppressed
findings are already gone, RL0 hygiene findings are already appended —
and a scan summary, so they stay pure functions of their inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic

#: JSON schema version, bumped on incompatible shape changes.
JSON_VERSION = 1


@dataclass(slots=True)
class ScanSummary:
    """What one runner invocation looked at."""

    files_scanned: int = 0
    files_failed: int = 0
    rules_run: list[str] = field(default_factory=list)


def counts_by_code(diagnostics: list[Diagnostic]) -> dict[str, int]:
    """``{"RL1": 3, ...}`` in sorted code order."""
    counts: dict[str, int] = {}
    for diag in diagnostics:
        counts[diag.code] = counts.get(diag.code, 0) + 1
    return {code: counts[code] for code in sorted(counts)}


def render_text(
    diagnostics: list[Diagnostic], summary: ScanSummary
) -> str:
    """One line per finding plus a footer; empty-ish when clean."""
    lines = [diag.render() for diag in sorted(diagnostics)]
    if diagnostics:
        per_code = ", ".join(
            f"{code}: {n}" for code, n in counts_by_code(diagnostics).items()
        )
        lines.append(
            f"repro-lint: {len(diagnostics)} finding(s) in "
            f"{summary.files_scanned} file(s) ({per_code})"
        )
    else:
        lines.append(
            f"repro-lint: clean ({summary.files_scanned} file(s), "
            f"{len(summary.rules_run)} rule(s))"
        )
    return "\n".join(lines)


def render_json(
    diagnostics: list[Diagnostic], summary: ScanSummary
) -> str:
    """Stable, sorted JSON document for CI gates and editors."""
    document = {
        "version": JSON_VERSION,
        "tool": "repro-lint",
        "files_scanned": summary.files_scanned,
        "files_failed": summary.files_failed,
        "rules_run": summary.rules_run,
        "summary": counts_by_code(diagnostics),
        "diagnostics": [diag.to_dict() for diag in sorted(diagnostics)],
    }
    return json.dumps(document, indent=2, sort_keys=False)


def _gh_escape_data(text: str) -> str:
    """Escape a workflow-command message body."""
    return (
        text.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )


def _gh_escape_prop(text: str) -> str:
    """Escape a workflow-command property value (file=, title=...)."""
    return (
        _gh_escape_data(text).replace(":", "%3A").replace(",", "%2C")
    )


def render_github(
    diagnostics: list[Diagnostic], summary: ScanSummary
) -> str:
    """GitHub Actions ``::error`` workflow commands, one per finding.

    Emitted to stdout inside a job, these annotate the PR diff at the
    exact file/line/column; the footer goes through ``::notice`` so it
    shows up in the job summary without claiming a source location.
    """
    lines = [
        "::error file={file},line={line},col={col},title={title}::{msg}".format(
            file=_gh_escape_prop(diag.path.replace("\\", "/")),
            line=diag.line,
            # Annotation columns are 1-based; diagnostics are 0-based.
            col=diag.col + 1,
            title=_gh_escape_prop(f"{diag.code} {diag.rule}"),
            msg=_gh_escape_data(diag.message),
        )
        for diag in sorted(diagnostics)
    ]
    if diagnostics:
        per_code = ", ".join(
            f"{code}: {n}" for code, n in counts_by_code(diagnostics).items()
        )
        lines.append(
            "::notice title=repro-lint::"
            + _gh_escape_data(
                f"{len(diagnostics)} finding(s) in "
                f"{summary.files_scanned} file(s) ({per_code})"
            )
        )
    else:
        lines.append(
            "::notice title=repro-lint::"
            + _gh_escape_data(
                f"clean ({summary.files_scanned} file(s), "
                f"{len(summary.rules_run)} rule(s))"
            )
        )
    return "\n".join(lines)

