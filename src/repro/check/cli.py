"""Command-line interface for the invariant auditor.

Usage::

    python -m repro check examples/specs examples/sweeps
    python -m repro.check --format json tests/data/equivalence_goldens.json
    repro-check --strict examples/specs
    repro-check --list-invariants

Target classification:

* ``*.jsonl`` files are trace/telemetry/shard artifacts;
* ``*.claim`` files are work-queue claims;
* ``*.json`` objects with a ``schema`` tag are artifacts;
* ``*.json`` objects/lists shaped like specs (a ``name`` plus a
  ``scheme`` or ``network`` key) are audited as scenario specs;
* anything else named explicitly is an RPR203 finding; unrecognized
  files found while recursing a directory are skipped silently.

Exit codes (same contract as ``repro-lint``, relied on by CI):

* **0** — no error-severity findings (warnings alone stay 0 unless
  ``--strict`` promotes them);
* **1** — at least one failing finding;
* **2** — usage error: no paths, or a path that does not exist.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Sequence

from repro.check.artifacts import check_artifact_file
from repro.check.invariants import INVARIANT_CATALOG, check_spec_file
from repro.lint.findings import Finding, LintUsageError
from repro.lint.reporters import render_json, render_text

__all__ = [
    "main",
    "build_parser",
    "check_paths",
    "failing",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_ERROR",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

_SPEC_KEYS = ("scheme", "network")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Buffer-invariant auditor for the repro simulator: verifies "
            "threshold/buffer feasibility, link capacity, route "
            "structure, churn admission regions, and artifact schema "
            "versions — without running the engine."
        ),
        epilog="exit codes: 0 clean, 1 findings, 2 usage error",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="spec/artifact files or directories (directories recurse "
        "into *.json, *.jsonl, and *.claim)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warning-severity findings as failures",
    )
    parser.add_argument(
        "--list-invariants",
        action="store_true",
        help="print the invariant catalog and exit",
    )
    return parser


def _list_invariants() -> str:
    lines = []
    for code in sorted(INVARIANT_CATALOG):
        name, description = INVARIANT_CATALOG[code]
        lines.append(f"{code} {name}: {description}")
    return "\n".join(lines)


def _classify(path: pathlib.Path) -> str:
    """'artifact', 'spec', or 'unknown' for one JSON/JSONL/claim file."""
    if path.suffix in (".jsonl", ".claim"):
        return "artifact"
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        # Let the spec checker produce the RPR203 finding with detail.
        return "spec"
    if isinstance(raw, dict):
        if "schema" in raw:
            return "artifact"
        if "name" in raw and any(key in raw for key in _SPEC_KEYS):
            return "spec"
        return "unknown"
    if isinstance(raw, list):
        if all(
            isinstance(entry, dict)
            and "name" in entry
            and any(key in entry for key in _SPEC_KEYS)
            for entry in raw
        ) and raw:
            return "spec"
        return "unknown"
    return "unknown"


def _discover(paths: Sequence[str]) -> list[tuple[pathlib.Path, bool]]:
    """(file, named_explicitly) pairs for every checkable target."""
    targets: dict[pathlib.Path, bool] = {}
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for pattern in ("*.json", "*.jsonl", "*.claim"):
                for found in sorted(path.rglob(pattern)):
                    targets.setdefault(found, False)
        elif path.is_file():
            targets[path] = True
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
    return sorted(targets.items())


def check_paths(paths: Sequence[str]) -> list[Finding]:
    """Audit files and directories; the library entry point behind main().

    Raises:
        LintUsageError: a path does not exist or nothing checkable found.
    """
    targets = _discover(paths)
    if not targets:
        raise LintUsageError(
            f"no spec or artifact files found under: {', '.join(paths)}"
        )
    findings: list[Finding] = []
    for path, explicit in targets:
        kind = _classify(path)
        if kind == "artifact":
            findings.extend(check_artifact_file(path))
        elif kind == "spec":
            findings.extend(check_spec_file(path))
        elif explicit:
            findings.append(
                Finding(
                    "RPR203",
                    "unrecognized file: neither a scenario/spec object "
                    "nor a schema-tagged artifact",
                    str(path),
                    1,
                )
            )
    findings.sort(key=Finding.sort_key)
    return findings


def failing(findings: Sequence[Finding], strict: bool = False) -> list[Finding]:
    """The findings that count toward a nonzero exit code."""
    return [
        finding
        for finding in findings
        if finding.severity == "error" or strict
    ]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)
    if options.list_invariants:
        print(_list_invariants())
        return EXIT_CLEAN
    if not options.paths:
        parser.print_usage(sys.stderr)
        print("repro-check: error: no paths given", file=sys.stderr)
        return EXIT_ERROR
    try:
        findings = check_paths(options.paths)
    except LintUsageError as exc:
        print(f"repro-check: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if options.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return EXIT_FINDINGS if failing(findings, options.strict) else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
