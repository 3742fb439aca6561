"""Command-line interface of ``repro check``: code rules and auditor.

Usage::

    python -m repro check src/repro tests benchmarks examples
    python -m repro.check --format json tests/data/equivalence_goldens.json
    repro-check --select RPR101,RPR104 src/repro/sim
    repro-check --strict examples/specs
    repro-check --list-rules

``*.py`` files run through the code rules (RPR0xx/RPR1xx); ``*.json``,
``*.jsonl`` and ``*.claim`` files through the invariant auditor
(RPR2xx); directories are searched for all four
(:func:`repro.check.engine.check_paths`).

Exit codes (documented contract, relied on by CI):

* **0** — no failing finding: warnings alone stay 0 unless ``--strict``;
* **1** — an unsuppressed error-severity finding (every code-rule
  finding is one, RPR001 malformed-suppression meta-findings included),
  or any unsuppressed finding under ``--strict``;
* **2** — usage or parse error: no paths, a missing path, nothing
  checkable found, an unknown rule id, or a ``*.py`` target that is not
  valid Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.check.engine import catalog, check_paths, failing
from repro.check.findings import LintParseError, LintUsageError
from repro.check.reporters import render_json, render_text

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Static checks for the repro simulator: code rules "
            "(determinism, canonical units, error discipline, sim-time "
            "safety, hot-path hygiene) over *.py files, and the "
            "buffer-invariant auditor (threshold/buffer feasibility, link "
            "capacity, route structure, churn admission regions, artifact "
            "schema versions) over specs and artifacts — without running "
            "the engine."
        ),
        epilog="exit codes: 0 clean, 1 findings, 2 usage/parse error",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (directories recurse into "
        "*.py, *.json, *.jsonl, and *.claim)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RPR###[,RPR###...]",
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by '# repro: noqa' comments",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warning-severity findings as failures",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)
    if options.list_rules:
        for rule_id, (name, description) in catalog().items():
            print(f"{rule_id} {name}: {description}")
        return EXIT_CLEAN
    if not options.paths:
        parser.print_usage(sys.stderr)
        print("repro-check: error: no paths given", file=sys.stderr)
        return EXIT_ERROR
    select = None
    if options.select:
        select = [rule_id.strip() for rule_id in options.select.split(",") if rule_id.strip()]
    try:
        findings = check_paths(options.paths, select)
    except (LintUsageError, LintParseError) as exc:
        print(f"repro-check: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    render = render_json if options.format == "json" else render_text
    print(render(findings, show_suppressed=options.show_suppressed))
    return EXIT_FINDINGS if failing(findings, options.strict) else EXIT_CLEAN
