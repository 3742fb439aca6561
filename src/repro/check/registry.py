"""Rule registry, the rule catalog and the per-file analysis context.

Code rules are small classes with a stable ``RPR###`` id; registering a
class makes it discoverable by the engine and by ``repro check
--list-rules``.  Each rule receives a :class:`LintContext` (parsed AST
plus source metadata) and yields :class:`~repro.check.findings.Finding`
objects.  The ids no class carries — the suppression meta-findings and
the invariant auditor's RPR2xx codes — are catalogued here as data, so
listing the catalog never imports the auditor.

All shipped code rules are *library rules*: they encode invariants of
the simulator library itself, so the engine skips them for test,
benchmark, and example files (where ``assert``, wall-clock timing, or
ad-hoc numbers are legitimate).  The suppression scanner still runs
everywhere.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from repro.check.findings import Finding, LintUsageError

__all__ = [
    "LintContext",
    "Rule",
    "ProjectRule",
    "register",
    "resolve_rule_ids",
    "RULE_REGISTRY",
    "INVARIANT_CATALOG",
    "SUPPRESSION_CATALOG",
]

#: Path components / filename prefixes marking non-library code.
_NON_LIBRARY_DIRS = frozenset({"tests", "benchmarks", "examples"})
_NON_LIBRARY_PREFIXES = ("test_", "bench_", "conftest")


class LintContext:
    """Everything a rule may inspect about one source file.

    The AST is walked **once** and indexed by exact node type; rules ask
    for the node kinds they care about via :meth:`select` instead of
    re-walking the whole tree per rule.
    """

    __slots__ = ("path", "source", "tree", "is_library", "_node_index")

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.is_library = _is_library_path(path)
        self._node_index: dict[type, list[ast.AST]] | None = None

    def select(self, *node_types: type) -> list[ast.AST]:
        """All nodes of the given exact types, in one shared walk.

        Matching is by ``type(node)``, not ``isinstance``: callers name
        every concrete class they want (``select(ast.FunctionDef,
        ast.AsyncFunctionDef)``).
        """
        index = self._node_index
        if index is None:
            index = {}
            for node in ast.walk(self.tree):
                index.setdefault(type(node), []).append(node)
            self._node_index = index
        if len(node_types) == 1:
            return index.get(node_types[0], [])
        nodes: list[ast.AST] = []
        for node_type in node_types:
            nodes.extend(index.get(node_type, []))
        return nodes

    def finding(self, rule_id: str, message: str, node: ast.AST) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            rule_id,
            message,
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
        )


def _is_library_path(path: str) -> bool:
    normalized = path.replace("\\", "/")
    parts = [part for part in normalized.split("/") if part]
    basename = parts[-1] if parts else ""
    if any(part in _NON_LIBRARY_DIRS for part in parts):
        return False
    return not basename.startswith(_NON_LIBRARY_PREFIXES)


class Rule(ABC):
    """Base class for analysis rules.

    Class attributes:
        id: stable ``RPR###`` identifier used in reports and suppressions.
        name: short kebab-case name.
        description: one-line summary shown by ``--list-rules``.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    @abstractmethod
    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield findings for one file."""


class ProjectRule(Rule):
    """A rule that sees the whole program at once.

    Project rules run after every file has been parsed and indexed; they
    receive a :class:`repro.check.project.ProjectContext` (module symbol
    tables + import graph) and may anchor findings in any file.  The
    engine's per-file library scoping cannot apply here, so the rule
    itself skips non-library modules where it must.
    """

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        return iter(())

    def applies(self, project) -> bool:
        """Whether this pass holds enough of the program for the rule.

        A rule that skips a pass leaves its pragmas unexercised there;
        the engine does not report them as stale.
        """
        return True

    @abstractmethod
    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings across the whole parsed project."""


RULE_REGISTRY: dict[str, type[Rule]] = {}

#: code -> (name, one-line description) for the suppression scanner's
#: meta-findings (:mod:`repro.check.suppressions`, :mod:`repro.check.engine`).
SUPPRESSION_CATALOG: dict[str, tuple[str, str]] = {
    "RPR001": (
        "malformed-suppression",
        "a '# repro: noqa' comment must name one or more valid rule ids",
    ),
    "RPR002": (
        "stale-suppression",
        "every rule id a pragma names must shield a finding on its line "
        "(reported on runs without --select)",
    ),
}

#: code -> (name, one-line description) for the invariant auditor
#: (:mod:`repro.check.invariants`, :mod:`repro.check.artifacts`).
INVARIANT_CATALOG: dict[str, tuple[str, str]] = {
    "RPR201": (
        "buffer-region",
        "per-flow threshold/burst sums must fit the node buffer "
        "(buffer-limited admission, eqs. 6/8-9)",
    ),
    "RPR202": (
        "link-capacity",
        "reserved token rates must not exceed the link rate "
        "(bandwidth-limited admission, eqs. 5/7)",
    ),
    "RPR203": (
        "scenario-structure",
        "scenario/spec files must construct: known nodes and links, "
        "connected routes, positive rates, well-formed workloads",
    ),
    "RPR204": (
        "churn-feasibility",
        "churn hops must run FIFO-family schemes and leave a residual "
        "region where at least one template/route pair is admissible",
    ),
    "RPR205": (
        "artifact-schema",
        "cache/baseline/golden/trace artifacts must carry the current "
        "*_SCHEMA version tags",
    ),
    "RPR206": (
        "pool-consistency",
        "traced buffer pools must conserve capacity at every transition: "
        "reserved + headroom + holes == B, all components non-negative",
    ),
}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id or RULE_REGISTRY.get(cls.id, cls) is not cls:
        raise LintUsageError(f"rule id {cls.id!r} is missing or already registered")
    RULE_REGISTRY[cls.id] = cls
    return cls


def resolve_rule_ids(selected: Iterable[str] | None) -> list[Rule]:
    """Instantiate the selected rules (all of them, by id, when ``selected`` is None)."""
    ids = sorted(RULE_REGISTRY if selected is None else set(selected))
    for rule_id in ids:
        if rule_id not in RULE_REGISTRY:
            known = ", ".join(sorted(RULE_REGISTRY))
            raise LintUsageError(f"unknown rule id {rule_id!r} (known: {known})")
    return [RULE_REGISTRY[rule_id]() for rule_id in ids]
