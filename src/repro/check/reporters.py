"""Rendering of findings: compiler-style text and machine-readable JSON."""

from __future__ import annotations

import json
from typing import Iterable

from repro.check.findings import Finding

__all__ = ["render_text", "render_json", "summarize"]


def summarize(findings: Iterable[Finding]) -> dict[str, int]:
    """Per-rule counts of unsuppressed findings plus totals."""
    by_rule: dict[str, int] = {}
    total = 0
    suppressed = 0
    for finding in findings:
        if finding.suppressed:
            suppressed += 1
            continue
        total += 1
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    counts = {rule_id: by_rule[rule_id] for rule_id in sorted(by_rule)}
    counts["total"] = total
    counts["suppressed"] = suppressed
    return counts


def render_text(findings: list[Finding], show_suppressed: bool = False) -> str:
    """Human-readable report, one ``path:line:col: RPR### message`` per line."""
    lines: list[str] = []
    active = [finding for finding in findings if not finding.suppressed]
    for finding in active:
        marker = "warning: " if finding.severity == "warning" else ""
        lines.append(
            f"{finding.location()}: {finding.rule_id} {marker}{finding.message}"
        )
    hidden = [finding for finding in findings if finding.suppressed]
    if show_suppressed and hidden:
        lines.append("")
        lines.append(f"suppressed ({len(hidden)}):")
        for finding in hidden:
            reason = finding.suppress_reason or "no reason given"
            lines.append(
                f"  {finding.location()}: {finding.rule_id} {finding.message} "
                f"[noqa: {reason}]"
            )
    counts = summarize(findings)
    if active:
        per_rule = ", ".join(
            f"{rule_id}={count}"
            for rule_id, count in counts.items()
            if rule_id not in ("total", "suppressed")
        )
        lines.append("")
        lines.append(
            f"{counts['total']} finding(s) ({per_rule}); "
            f"{counts['suppressed']} suppressed"
        )
    else:
        lines.append(f"clean: 0 findings; {counts['suppressed']} suppressed")
    return "\n".join(lines)


def render_json(findings: list[Finding], show_suppressed: bool = False) -> str:
    """JSON report: counts plus finding records (stable field order)."""
    payload = {
        "counts": summarize(findings),
        "findings": [
            finding.to_dict() for finding in findings if not finding.suppressed
        ],
    }
    if show_suppressed:
        payload["suppressed_findings"] = [
            finding.to_dict() for finding in findings if finding.suppressed
        ]
    return json.dumps(payload, indent=2, sort_keys=False)
