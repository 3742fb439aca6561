"""Parsing of ``# repro: noqa RPR###`` suppression comments.

The suppression syntax, checked by this module:

* ``# repro: noqa RPR102`` — suppress RPR102 on this line;
* ``# repro: noqa RPR102, RPR105 — reason text`` — several rules, with a
  human-readable justification after an em-dash / hyphen / colon;
* a comment that is alone on its line suppresses the **next** line too,
  so class- and function-level findings can carry a suppression above the
  ``class``/``def`` statement.

A comment that *looks* like a suppression (``repro: noqa``) but names no
valid rule id is itself reported as an **RPR001** meta-finding: a silent
typo in a suppression would otherwise re-enable the violation it was
meant to acknowledge.  Blanket suppressions without an explicit rule list
are rejected for the same reason.

Well-formed pragmas are tracked per rule id: the engine marks each
(line, rule) pair that actually shielded a finding, and any rule id a
pragma names that never fired becomes an **RPR002** meta-finding.  Stale
suppressions otherwise rot silently and hide the *next* violation on
that line.

Comments are located with :mod:`tokenize`, so the pattern inside a string
literal (e.g. in the checker's own test-suite) is never treated as a
suppression.
"""

from __future__ import annotations

import io
import re
import tokenize

from repro.check.findings import Finding

__all__ = ["SuppressionTable", "scan_suppressions"]

#: Marker that makes a comment a suppression candidate.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\b(?P<rest>.*)", re.IGNORECASE)
#: Well-formed rule identifier.
_RULE_ID_RE = re.compile(r"\bRPR\d{3}\b")
#: Separators starting the free-text reason (em-dash, hyphen, or colon).
_REASON_SPLIT_RE = re.compile(r"\s+[—:-]+\s+|\s*—\s*")


class Pragma:
    """One well-formed suppression comment and its usage state."""

    __slots__ = ("line", "col", "rule_ids", "reason", "covered_lines", "used_ids")

    def __init__(
        self,
        line: int,
        col: int,
        rule_ids: tuple[str, ...],
        reason: str,
        covered_lines: tuple[int, ...],
    ) -> None:
        self.line = line
        self.col = col
        self.rule_ids = rule_ids
        self.reason = reason
        self.covered_lines = covered_lines
        self.used_ids: set[str] = set()

    def unused_ids(self) -> list[str]:
        return [rule_id for rule_id in self.rule_ids if rule_id not in self.used_ids]


class SuppressionTable:
    """Maps source lines to the pragmas suppressing rules on them."""

    __slots__ = ("_by_line", "pragmas")

    def __init__(self) -> None:
        self._by_line: dict[int, dict[str, Pragma]] = {}
        self.pragmas: list[Pragma] = []

    def add(self, pragma: Pragma) -> None:
        self.pragmas.append(pragma)
        for line in pragma.covered_lines:
            entry = self._by_line.setdefault(line, {})
            for rule_id in pragma.rule_ids:
                entry[rule_id] = pragma

    def covers(self, line: int, rule_id: str) -> bool:
        return rule_id in self._by_line.get(line, {})

    def reason(self, line: int, rule_id: str) -> str:
        pragma = self._by_line.get(line, {}).get(rule_id)
        return pragma.reason if pragma is not None else ""

    def mark_used(self, line: int, rule_id: str) -> None:
        pragma = self._by_line.get(line, {}).get(rule_id)
        if pragma is not None:
            pragma.used_ids.add(rule_id)


def _parse_comment(text: str) -> tuple[list[str], str] | None:
    """Return (rule_ids, reason) for a suppression comment, or None.

    An empty rule-id list means the comment is malformed.
    """
    match = _NOQA_RE.search(text)
    if match is None:
        return None
    rest = match.group("rest")
    split = _REASON_SPLIT_RE.split(rest, maxsplit=1)
    id_part = split[0]
    reason = split[1].strip() if len(split) > 1 else ""
    rule_ids = _RULE_ID_RE.findall(id_part)
    # Reject id sections containing junk that is neither a rule id nor a
    # list separator: "RPR10" or "RPR101x" must not silently half-work.
    residue = _RULE_ID_RE.sub("", id_part).replace(",", "").strip()
    if residue:
        return [], reason
    return sorted(set(rule_ids)), reason


def scan_suppressions(source: str, path: str) -> tuple[SuppressionTable, list[Finding]]:
    """Extract the suppression table and RPR001 meta-findings of a file."""
    table = SuppressionTable()
    meta: list[Finding] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The caller reports the parse failure; no suppressions apply.
        return table, meta
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        parsed = _parse_comment(token.string)
        if parsed is None:
            continue
        rule_ids, reason = parsed
        line, col = token.start
        if not rule_ids:
            meta.append(
                Finding(
                    "RPR001",
                    "malformed suppression: expected '# repro: noqa RPR###"
                    " — reason' with one or more explicit rule ids",
                    path,
                    line,
                    col,
                )
            )
            continue
        standalone = token.line[:col].strip() == ""
        covered = (line, line + 1) if standalone else (line,)
        table.add(Pragma(line, col, tuple(rule_ids), reason, covered))
    return table, meta
