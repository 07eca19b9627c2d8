"""File discovery, orchestration, and the ``repro lint`` entry point.

Pipeline per file: parse (:class:`FileContext`) → run the scoped
per-file rules → merge in whole-program findings (under
``--interprocedural``) → drop suppressed findings → append
suppression-hygiene findings (RL0).  Unparseable files surface as
``E999`` diagnostics rather than crashing the run, so one broken file
cannot hide findings in the rest.

Two optional layers wrap the per-file pipeline:

* the **incremental cache** (:mod:`repro.analysis.cache`) keyed by each
  file's SHA-256 skips parse + rule execution for unchanged files —
  suppression filtering is always re-applied so per-file and
  interprocedural findings merge correctly;
* the **interprocedural pass** links every parsed file into one
  :class:`~repro.analysis.callgraph.Program` and runs the registered
  program rules (RL6–RL11) over it, attributing findings back to files.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.cache import (
    DEFAULT_CACHE_PATH,
    LintCache,
    content_hash,
    program_key,
)
from repro.analysis.context import FileContext, SourceError
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import (
    BaseProgramRule,
    BaseRule,
    all_rules,
    known_codes,
    select_program_rules,
    select_rules,
)
from repro.analysis.reporters import (
    ScanSummary,
    render_github,
    render_json,
    render_text,
)
from repro.analysis.suppressions import Suppression, SuppressionTable

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {".git", "__pycache__", ".mypy_cache", ".ruff_cache", "build", "dist"}
)


def discover_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        elif path.endswith(".py"):
            out.append(path)
        else:
            raise FileNotFoundError(
                f"{path!r} is neither a directory nor a .py file"
            )
    return sorted(dict.fromkeys(out))


# ----------------------------------------------------------------------
# Per-file analysis
# ----------------------------------------------------------------------
@dataclass(slots=True)
class FileAnalysis:
    """Pre-suppression state of one analyzed file."""

    path: str
    raw: list[Diagnostic] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    ctx: FileContext | None = None
    """Parsed context (``None`` on a cache hit or parse error)."""

    parse_error: bool = False

    def finish(
        self,
        program_diags: list[Diagnostic],
        run_codes: frozenset[str],
    ) -> list[Diagnostic]:
        """Apply suppressions and hygiene over all findings."""
        table = SuppressionTable(
            path=self.path, suppressions=self.suppressions
        )
        kept = table.filter(sorted(self.raw + program_diags))
        kept.extend(table.hygiene(known_codes(), run_codes=run_codes))
        return sorted(kept)


def _parse_error_diag(path: str, exc: SourceError) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=exc.line,
        col=exc.col,
        code="E999",
        rule="parse-error",
        message=str(exc),
    )


def _read_error(path: str, exc: OSError) -> Diagnostic:
    return Diagnostic(
        path=path,
        line=1,
        col=0,
        code="E999",
        rule="parse-error",
        message=f"cannot read file: {exc}",
    )


def analyze_file(
    path: str,
    rules: Sequence[BaseRule],
    source: str | None = None,
) -> FileAnalysis:
    """Parse one file and run the per-file rules (no suppression yet)."""
    analysis = FileAnalysis(path=path)
    if source is None:
        try:
            with open(path, encoding="utf-8") as f:
                source = f.read()
        except OSError as exc:
            analysis.raw.append(_read_error(path, exc))
            analysis.parse_error = True
            return analysis
    try:
        ctx = FileContext.from_source(path, source)
    except SourceError as exc:
        analysis.raw.append(_parse_error_diag(path, exc))
        analysis.parse_error = True
        return analysis
    analysis.ctx = ctx
    for rule in rules:
        if rule.applies_to(ctx):
            analysis.raw.extend(rule.check(ctx))
    analysis.suppressions = SuppressionTable.from_source(
        path, source
    ).suppressions
    return analysis


def lint_file(
    path: str,
    rules: Sequence[BaseRule] | None = None,
    source: str | None = None,
) -> list[Diagnostic]:
    """All post-suppression diagnostics for one file (per-file rules)."""
    active = list(all_rules()) if rules is None else list(rules)
    analysis = analyze_file(path, active, source=source)
    run_codes = frozenset(r.code for r in active) | {"RL0", "E999"}
    return analysis.finish([], run_codes)


# ----------------------------------------------------------------------
# Whole-tree orchestration
# ----------------------------------------------------------------------
def _program_diagnostics(
    analyses: dict[str, FileAnalysis],
    program_rules: Sequence[BaseProgramRule],
) -> list[Diagnostic]:
    """Link every parsed file and run the interprocedural rules."""
    from repro.analysis.callgraph import Program

    contexts = [
        analyses[path].ctx
        for path in sorted(analyses)
        if analyses[path].ctx is not None
    ]
    program = Program.build([c for c in contexts if c is not None])
    diags: list[Diagnostic] = []
    for rule in program_rules:
        diags.extend(rule.check_program(program))
    return sorted(diags)


def lint_paths(
    paths: Iterable[str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    interprocedural: bool = False,
    cache_path: str | None = None,
) -> tuple[list[Diagnostic], ScanSummary]:
    """Lint every ``.py`` file under *paths*.

    ``interprocedural=True`` additionally links the files into one
    program and runs the registered program rules (RL6–RL13).
    ``cache_path`` enables the incremental result cache.
    """
    file_rules = select_rules(select, ignore)
    program_rules: list[BaseProgramRule] = (
        select_program_rules(select, ignore) if interprocedural else []
    )
    run_codes = (
        frozenset(r.code for r in file_rules)
        | frozenset(r.code for r in program_rules)
        | {"RL0", "E999"}
    )
    codes_key = ",".join(sorted(r.code for r in file_rules))
    summary = ScanSummary(
        rules_run=sorted(
            [r.code for r in file_rules] + [r.code for r in program_rules]
        )
    )
    files = discover_files(paths)
    cache = LintCache(cache_path) if cache_path is not None else None

    analyses: dict[str, FileAnalysis] = {}
    hashes: dict[str, str] = {}
    sources: dict[str, str] = {}
    for path in files:
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            analysis = FileAnalysis(path=path)
            analysis.raw.append(_read_error(path, exc))
            analysis.parse_error = True
            analyses[path] = analysis
            continue
        digest = content_hash(data)
        hashes[path] = digest
        source = data.decode("utf-8", errors="replace")
        sources[path] = source
        cached = (
            cache.get_file(path, digest, codes_key)
            if cache is not None
            else None
        )
        if cached is not None:
            raw, suppressions = cached
            analysis = FileAnalysis(
                path=path,
                raw=raw,
                suppressions=suppressions,
                parse_error=any(d.code == "E999" for d in raw),
            )
        else:
            analysis = analyze_file(path, file_rules, source=source)
            if cache is not None:
                cache.put_file(
                    path,
                    digest,
                    codes_key,
                    analysis.raw,
                    analysis.suppressions,
                )
        analyses[path] = analysis

    program_diags: dict[str, list[Diagnostic]] = {}
    if program_rules:
        from repro.analysis.cfg import FLOW_MODEL_VERSION
        from repro.analysis.concurrency import CONCURRENCY_MODEL_VERSION

        key = program_key(
            sorted(r.code for r in program_rules),
            sorted(hashes.items()),
            model_version=(
                f"{CONCURRENCY_MODEL_VERSION}+{FLOW_MODEL_VERSION}"
            ),
        )
        cached_prog = (
            cache.get_program(key) if cache is not None else None
        )
        if cached_prog is None:
            for path in sorted(analyses):
                analysis = analyses[path]
                if analysis.ctx is None and not analysis.parse_error:
                    # Cache hit earlier: re-parse just for linking.
                    try:
                        analysis.ctx = FileContext.from_source(
                            path, sources[path]
                        )
                    except SourceError:  # pragma: no cover - raced edit
                        analysis.parse_error = True
            cached_prog = _program_diagnostics(analyses, program_rules)
            if cache is not None:
                cache.put_program(key, cached_prog)
        for diag in cached_prog:
            program_diags.setdefault(diag.path, []).append(diag)

    diagnostics: list[Diagnostic] = []
    for path in files:
        analysis = analyses[path]
        found = analysis.finish(program_diags.get(path, []), run_codes)
        summary.files_scanned += 1
        if any(d.code == "E999" for d in found):
            summary.files_failed += 1
        diagnostics.extend(found)
    if cache is not None:
        cache.save()
    return sorted(diagnostics), summary


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "repro-lint: AST-based invariant linter (journal-bypass, "
            "determinism, transaction-safety, exception taxonomy, "
            "strict typing, and — with --interprocedural — "
            "process-boundary safety, journal coverage, shared-state "
            "races, and async/thread concurrency discipline over the "
            "whole-program call graph)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help="output format (default: text; 'github' emits GitHub "
        "Actions ::error annotations)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. RL1,RL2)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--interprocedural",
        action="store_true",
        help="link all files into one program and run the "
        "interprocedural rules (RL6-RL13) as well",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental result cache",
    )
    parser.add_argument(
        "--cache-file",
        metavar="PATH",
        default=DEFAULT_CACHE_PATH,
        help=f"cache file location (default: {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [c.strip() for c in raw.split(",") if c.strip()]


def _print_catalog() -> None:
    from repro.analysis.registry import all_program_rules

    for rule in all_rules():
        scope = (
            ", ".join(s or "<root>" for s in rule.enforced)
            if rule.enforced is not None
            else "all packages"
        )
        print(f"{rule.code}  {rule.name}  [{scope}]")
        print(f"      {rule.summary}")
    for prule in all_program_rules():
        scope = (
            ", ".join(s or "<root>" for s in prule.enforced)
            if prule.enforced is not None
            else "all packages"
        )
        print(f"{prule.code}  {prule.name}  [{scope}]  (--interprocedural)")
        print(f"      {prule.summary}")
    print("RL0  suppression-hygiene  [all packages]")
    print(
        "      suppressions must carry '-- justification', name "
        "known codes, and match a finding"
    )


def run(argv: Sequence[str] | None = None) -> int:
    """The ``repro lint`` / ``python -m repro.analysis`` entry point."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_catalog()
        return 0
    cache_path = None if args.no_cache else args.cache_file
    try:
        diagnostics, summary = lint_paths(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
            interprocedural=args.interprocedural,
            cache_path=cache_path,
        )
    except (FileNotFoundError, KeyError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    renderer = {
        "github": render_github,
        "json": render_json,
        "text": render_text,
    }[args.format]
    print(renderer(diagnostics, summary))
    return 1 if diagnostics else 0


def main() -> None:  # pragma: no cover - thin shell wrapper
    sys.exit(run())
