"""Analysis driver: one walk over the paths, one pass per file kind.

:func:`check_paths` is the entry point behind ``repro check``.  It walks
the given files and directories once, sorts what it finds (the pass is
deterministic, the invariant it enforces on the simulator), and sends
each file down one of two legs:

* ``*.py`` files are parsed exactly **once** into a
  :class:`~repro.check.registry.LintContext` (whose node index is shared
  across all per-file rules); the parsed contexts are then assembled
  into a :class:`repro.check.project.ProjectContext` for the
  cross-module :class:`~repro.check.registry.ProjectRule` checks (RNG
  lineage, trace-event registration, ...).  Suppression pragmas are
  tracked per rule id; on a full-rule run any pragma id that never
  shielded a finding is reported as an **RPR002** stale-suppression
  meta-finding.
* ``*.json``, ``*.jsonl`` and ``*.claim`` files go to the invariant
  auditor (:func:`repro.check.artifacts.check_data_file`), imported only
  when such a file is found.

The engine maps inputs to a sorted list of
:class:`~repro.check.findings.Finding` objects and leaves presentation
and exit codes to :mod:`repro.check.reporters` / :mod:`repro.check.cli`.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable, Sequence

from repro.check.findings import Finding, LintParseError, LintUsageError
from repro.check.registry import (
    INVARIANT_CATALOG,
    RULE_REGISTRY,
    SUPPRESSION_CATALOG,
    LintContext,
    ProjectRule,
    resolve_rule_ids,
)
from repro.check.suppressions import SuppressionTable, scan_suppressions

# Imports for the side effect of registering the shipped rules.
from repro.check import program_rules as _program_rules  # noqa: F401  (registration import)
from repro.check import rules as _rules  # noqa: F401  (registration import)

__all__ = ["catalog", "check_paths", "failing", "lint_source"]

#: Suffixes the walk collects from a directory.
_SUFFIXES = (".py", ".json", ".jsonl", ".claim")


def catalog() -> dict[str, tuple[str, str]]:
    """Every rule id ``repro check`` can report -> (name, description)."""
    rows = dict(SUPPRESSION_CATALOG)
    rows.update((rule_id, (cls.name, cls.description)) for rule_id, cls in RULE_REGISTRY.items())
    rows.update(INVARIANT_CATALOG)
    return dict(sorted(rows.items()))


def _apply_suppression(finding: Finding, table: SuppressionTable) -> None:
    if table.covers(finding.line, finding.rule_id):
        finding.suppressed = True
        finding.suppress_reason = table.reason(finding.line, finding.rule_id)
        table.mark_used(finding.line, finding.rule_id)


def _stale_pragma_findings(
    path: str, table: SuppressionTable, skipped: frozenset[str]
) -> list[Finding]:
    """RPR002 meta-findings for pragma ids that never shielded anything
    (ids of rules that skipped this pass had nothing to shield)."""
    findings: list[Finding] = []
    for pragma in table.pragmas:
        unused = [rule_id for rule_id in pragma.unused_ids() if rule_id not in skipped]
        if not unused:
            continue
        ids = ", ".join(unused)
        findings.append(
            Finding(
                "RPR002",
                f"stale suppression: {ids} never fired here — remove the "
                "pragma (or the dead rule id) so it cannot mask the next "
                "real violation on this line",
                path,
                pragma.line,
                pragma.col,
            )
        )
    return findings


def _analyze(contexts: Sequence[LintContext], select: Iterable[str] | None) -> list[Finding]:
    """Run the full two-stage pass over already-parsed files."""
    rules = resolve_rule_ids(select)
    file_rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]
    project_rules = [rule for rule in rules if isinstance(rule, ProjectRule)]
    findings: list[Finding] = []
    tables: dict[str, SuppressionTable] = {}
    for ctx in contexts:
        table, meta = scan_suppressions(ctx.source, ctx.path)
        tables[ctx.path] = table
        findings.extend(meta)
        if not ctx.is_library:
            continue  # every code rule is a library rule
        for rule in file_rules:
            for finding in rule.check(ctx):
                _apply_suppression(finding, table)
                findings.append(finding)
    skipped: frozenset[str] = frozenset()
    if project_rules:
        from repro.check.project import ProjectContext

        project = ProjectContext(contexts)
        skipped = frozenset(rule.id for rule in project_rules if not rule.applies(project))
        for rule in project_rules:
            if rule.id in skipped:
                continue
            for finding in rule.check_project(project):
                table = tables.get(finding.path)
                if table is not None:
                    _apply_suppression(finding, table)
                findings.append(finding)
    if select is None:
        # Stale-pragma detection only makes sense when every rule ran:
        # a restricted --select pass leaves most pragmas legitimately
        # unexercised.  RPR001/RPR002 meta-findings are not suppressible.
        for path in sorted(tables):
            findings.extend(_stale_pragma_findings(path, tables[path], skipped))
    findings.sort(key=Finding.sort_key)
    return findings


def _parse(source: str, path: str) -> LintContext:
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        raise LintParseError(f"{path}: {exc}") from exc
    return LintContext(path, source, tree)


# repro: noqa RPR110 — oracle: the rule tests drive every code rule through it
def lint_source(
    source: str,
    path: str = "src/repro/<snippet>.py",
    select: Iterable[str] | None = None,
) -> list[Finding]:
    """Analyze one unit of source text (a single-file project).

    Args:
        source: Python source to analyze.
        path: path used for scoping decisions (library vs. test code,
            ``repro/sim`` / ``repro/core`` slots scope) and in findings.
        select: optional iterable of rule ids to restrict the run to.

    Returns:
        All findings sorted by location, suppressed ones included (with
        ``suppressed=True``).  RPR001/RPR002 suppression meta-findings
        are never themselves suppressible.

    Raises:
        LintParseError: the source is not valid Python.
    """
    return _analyze([_parse(source, path)], select)


def _discover(paths: Sequence[str]) -> list[tuple[pathlib.Path, bool]]:
    """(file, named_explicitly) pairs for every checkable target."""
    targets: dict[pathlib.Path, bool] = {}
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for found in path.rglob("*"):
                if found.suffix in _SUFFIXES:
                    targets.setdefault(found, False)
        elif path.is_file():
            targets[path] = True
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
    return sorted(targets.items())


def _read(path: pathlib.Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintUsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LintParseError(f"{path}: not valid UTF-8 ({exc})") from exc


def check_paths(
    paths: Sequence[str], select: Iterable[str] | None = None
) -> list[Finding]:
    """Check files and directories: code rules and the invariant auditor.

    ``*.py`` files run through the code rules (all files parsed first,
    each exactly once, then the per-file and whole-program rules);
    every other file is a spec or artifact for the auditor.  Directories
    are searched for ``*.py``, ``*.json``, ``*.jsonl`` and ``*.claim``;
    an unrecognized JSON file found there is skipped, one named
    explicitly is an RPR203 finding.  ``select`` restricts the run to
    the given ids of the :func:`catalog`: the Python leg runs when it
    names a code rule (RPR0xx/RPR1xx), the auditor leg when it names an
    RPR2xx id.

    Raises:
        LintUsageError: a path does not exist, nothing checkable was
            found, or ``select`` names an id outside the catalog.
        LintParseError: some ``*.py`` file is not parseable Python.
    """
    targets = _discover(paths)
    if not targets:
        raise LintUsageError(f"no checkable files found under: {', '.join(paths)}")
    code_select = None
    data_select = None
    run_code = run_data = True
    if select is not None:
        wanted = set(select)
        known = catalog()
        unknown = sorted(wanted - known.keys())
        if unknown:
            raise LintUsageError(
                f"unknown rule id {unknown[0]!r} (known: {', '.join(known)})"
            )
        # RPR001/RPR002 come from the suppression scan, not a Rule class.
        code_select = sorted(wanted & RULE_REGISTRY.keys())
        data_select = wanted & INVARIANT_CATALOG.keys()
        run_code = bool(wanted - data_select)
        run_data = bool(data_select)
    sources = [path for path, _ in targets if path.suffix == ".py"]
    findings: list[Finding] = []
    if sources and run_code:
        contexts = [_parse(_read(path), str(path)) for path in sources]
        findings.extend(_analyze(contexts, code_select))
    data = [(path, explicit) for path, explicit in targets if path.suffix != ".py"]
    if data and run_data:
        from repro.check.artifacts import check_data_file

        for path, explicit in data:
            findings.extend(
                finding
                for finding in check_data_file(path, explicit)
                if data_select is None or finding.rule_id in data_select
            )
    findings.sort(key=Finding.sort_key)
    return findings


def failing(findings: Iterable[Finding], strict: bool = False) -> list[Finding]:
    """The findings that count toward a nonzero exit code.

    An unsuppressed finding fails when it has error severity, or at all
    under ``strict``.  Every code-rule finding is an error.
    """
    return [
        finding
        for finding in findings
        if not finding.suppressed and (strict or finding.severity == "error")
    ]
