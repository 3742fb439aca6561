"""Finding objects produced by ``repro check``.

A :class:`Finding` pins one rule violation to a file and line.  Findings
are plain slotted objects (a big tree produces thousands) and sort by
location so reports are deterministic regardless of rule execution order.
"""

from __future__ import annotations

from repro.errors import ReproError

__all__ = ["Finding", "LintParseError", "LintUsageError"]


class LintParseError(ReproError):
    """A target file could not be parsed as Python (CLI exit code 2)."""


class LintUsageError(ReproError):
    """The analyzer was invoked with unusable arguments (CLI exit code 2)."""


class Finding:
    """One rule violation at a specific source location.

    Attributes:
        rule_id: the ``RPR###`` identifier of the violated rule.
        message: human-readable explanation of the violation.
        path: path of the offending file as given to the analyzer.
        line: 1-based line number.
        col: 0-based column offset.
        suppressed: True when a ``# repro: noqa`` comment covers the
            finding; suppressed findings never affect the exit code.
        suppress_reason: free-text reason attached to the suppression
            comment (empty string when none was given).
        severity: ``"error"`` (default) or ``"warning"``.  Code rules
            only emit errors; the invariant auditor downgrades
            guarantee-not-assured diagnostics to warnings, which do not
            affect the exit code unless ``--strict``.
    """

    __slots__ = (
        "rule_id",
        "message",
        "path",
        "line",
        "col",
        "suppressed",
        "suppress_reason",
        "severity",
    )

    def __init__(
        self,
        rule_id: str,
        message: str,
        path: str,
        line: int,
        col: int = 0,
        severity: str = "error",
    ) -> None:
        self.rule_id = rule_id
        self.message = message
        self.path = path
        self.line = line
        self.col = col
        self.suppressed = False
        self.suppress_reason = ""
        self.severity = severity

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def location(self) -> str:
        """``path:line:col`` in the familiar compiler format (col 1-based)."""
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> dict:
        """JSON-serialisable representation (used by the JSON reporter)."""
        return {
            "rule": self.rule_id,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
        }

    def __repr__(self) -> str:
        flag = " [suppressed]" if self.suppressed else ""
        return f"Finding({self.rule_id} at {self.location()}{flag})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Finding):
            return NotImplemented
        return self.sort_key() == other.sort_key() and self.message == other.message

    def __hash__(self) -> int:
        return hash((self.sort_key(), self.message))
