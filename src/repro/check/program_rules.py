"""Cross-module code rules powered by the project indexer.

These register with the :mod:`repro.check.engine` like any other rule but
run over the whole program at once (:class:`~repro.check.registry.ProjectRule`):

* **RPR107** — RNG lineage: every ``Generator``/``SeedSequence`` (the
  library's :mod:`repro.sim.rng` or numpy's) must descend from a seeded
  root (no argument-less constructor), no module-level streams, no legacy
  global seeding, and no single stream handed to two components — give
  each consumer its own ``spawn()`` child instead.
* **RPR108** — trace-event registration: every class carrying a ``kind``
  tag and every event class passed to ``.emit(...)`` must appear in the
  ``EVENT_TYPES`` registry that defines the ``TRACE_SCHEMA`` vocabulary;
  an unregistered event serializes to a trace readers reject.
* **RPR109** — hot-loop time accumulation: repeated ``+=``/``-=`` on a
  simulation-time variable inside a loop in the hot-path packages
  accumulates float error packet by packet; derive times from a base
  value and a multiplication instead.

RPR107/108 need cross-module name resolution, so they only see what the
current pass parsed: checking a subtree without ``repro.obs`` simply skips
the registration check rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.project import ModuleInfo, ProjectContext
from repro.check.findings import Finding
from repro.check.registry import LintContext, ProjectRule, Rule, register
from repro.check.rules import SimTimeRule, _dotted_name

__all__ = ["RngLineageRule", "TraceEventRegistryRule", "TimeAccumulationRule"]


def _finding(rule_id: str, message: str, mod: ModuleInfo, node: ast.AST) -> Finding:
    return Finding(
        rule_id,
        message,
        mod.path,
        getattr(node, "lineno", 1),
        getattr(node, "col_offset", 0),
    )


def _shallow_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register
class RngLineageRule(ProjectRule):
    """RPR107: every Generator descends from a seeded root, one per consumer."""

    id = "RPR107"
    name = "rng-lineage"
    description = (
        "Generators/SeedSequences must be seeded (no OS-entropy "
        "roots), never module-level, and never shared across components "
        "— spawn() a child stream per consumer"
    )

    #: The library's streams, and numpy's: library code that imports it
    #: again is held to the same lineage.
    _FACTORIES = frozenset(
        {"repro.sim.rng.Generator", "repro.sim.rng.SeedSequence"}
        | {f"numpy.random.{name}" for name in ("default_rng", "Generator", "SeedSequence")}
    )
    _GLOBAL_SEED = "numpy.random.seed"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for mod in project.modules.values():
            if not mod.is_library:
                continue
            yield from self._check_module(project, mod)

    def _check_module(
        self, project: ProjectContext, mod: ModuleInfo
    ) -> Iterator[Finding]:
        factory_calls: dict[int, str] = {}
        for node in mod.ctx.select(ast.Call):
            canon = project.canonical_name(mod, _dotted_name(node.func))
            if canon in self._FACTORIES:
                factory_calls[id(node)] = canon
                if not node.args and not node.keywords:
                    leaf = canon.rsplit(".", maxsplit=1)[-1]
                    yield _finding(
                        self.id,
                        f"unseeded {leaf}() draws its root from OS entropy; "
                        "every stream must descend from a seeded "
                        "SeedSequence via spawn()",
                        mod,
                        node,
                    )
            elif canon == self._GLOBAL_SEED:
                yield _finding(
                    self.id,
                    "legacy numpy.random.seed() mutates the process-global "
                    "stream; use seeded Generator objects passed in "
                    "explicitly",
                    mod,
                    node,
                )
        # Module-level streams are process-global state even when seeded.
        for stmt in mod.ctx.tree.body:
            value = getattr(stmt, "value", None)
            if (
                isinstance(stmt, (ast.Assign, ast.AnnAssign))
                and isinstance(value, ast.Call)
                and id(value) in factory_calls
            ):
                yield _finding(
                    self.id,
                    "module-level RNG stream is shared global state; "
                    "construct generators inside the component that owns "
                    "them, from a spawned child sequence",
                    mod,
                    stmt,
                )
        for func in mod.ctx.select(ast.FunctionDef, ast.AsyncFunctionDef):
            yield from self._check_aliasing(mod, func, factory_calls)

    def _check_aliasing(
        self, mod: ModuleInfo, func: ast.AST, factory_calls: dict[int, str]
    ) -> Iterator[Finding]:
        """One stream handed to two component constructors is aliasing."""
        stream_names: set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                annotation = arg.annotation
                if annotation is not None and _dotted_name(annotation).rsplit(
                    ".", maxsplit=1
                )[-1] == "Generator":
                    stream_names.add(arg.arg)
        body_nodes = list(_shallow_walk(func))
        for node in body_nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and id(node.value) in factory_calls
            ):
                stream_names.add(node.targets[0].id)
        if not stream_names:
            return
        handed_to: dict[str, list[ast.Call]] = {}
        for node in body_nodes:
            if not isinstance(node, ast.Call):
                continue
            callee_leaf = _dotted_name(node.func).rsplit(".", maxsplit=1)[-1]
            if not callee_leaf or not callee_leaf[0].isupper():
                continue  # only component constructors count as consumers
            passed = {
                value.id
                for value in [*node.args, *[kw.value for kw in node.keywords]]
                if isinstance(value, ast.Name) and value.id in stream_names
            }
            for name in passed:
                handed_to.setdefault(name, []).append(node)
        for name, sites in handed_to.items():
            if len(sites) < 2:
                continue
            sites.sort(key=lambda call: (call.lineno, call.col_offset))
            for site in sites[1:]:
                yield _finding(
                    self.id,
                    f"Generator stream {name!r} is passed to multiple "
                    "components; aliased streams correlate their draws — "
                    "spawn() a child per consumer",
                    mod,
                    site,
                )


@register
class TraceEventRegistryRule(ProjectRule):
    """RPR108: every emitted ``kind``-tagged event is in EVENT_TYPES."""

    id = "RPR108"
    name = "trace-event-registry"
    description = (
        "every event class carrying a kind tag and every class passed to "
        ".emit() must be registered in EVENT_TYPES (the TRACE_SCHEMA "
        "vocabulary)"
    )

    _REGISTRY_NAME = "EVENT_TYPES"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        registries = self._find_registries(project)
        if not registries:
            return  # the vocabulary module was not part of this pass
        registered: set[str] = set()
        for _mod, names, _node in registries:
            registered.update(names)
        for mod, _names, node in registries:
            yield from self._check_registry_module(mod, registered, node)
        for mod in project.modules.values():
            if not mod.is_library:
                continue
            yield from self._check_emit_sites(project, mod, registered)

    def _find_registries(
        self, project: ProjectContext
    ) -> list[tuple[ModuleInfo, list[str], ast.AST]]:
        registries = []
        for mod in project.modules.values():
            for stmt in mod.ctx.tree.body:
                target = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                if not (isinstance(target, ast.Name) and target.id == self._REGISTRY_NAME):
                    continue
                value = getattr(stmt, "value", None)
                names = self._registered_names(value)
                if names is not None:
                    registries.append((mod, names, stmt))
        return registries

    @staticmethod
    def _registered_names(value: ast.AST | None) -> list[str] | None:
        """Class names out of ``{cls.kind: cls for cls in (A, B, ...)}``."""
        if not isinstance(value, ast.DictComp) or not value.generators:
            return None
        iterable = value.generators[0].iter
        if not isinstance(iterable, (ast.Tuple, ast.List)):
            return None
        names = []
        for element in iterable.elts:
            if isinstance(element, ast.Name):
                names.append(element.id)
        return names

    @staticmethod
    def _has_kind_tag(node: ast.ClassDef) -> bool:
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.target.id == "kind" and stmt.value is not None:
                    return True
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "kind":
                        return True
        return False

    def _check_registry_module(
        self, mod: ModuleInfo, registered: set[str], registry_node: ast.AST
    ) -> Iterator[Finding]:
        for node in mod.ctx.select(ast.ClassDef):
            if self._has_kind_tag(node) and node.name not in registered:
                yield _finding(
                    self.id,
                    f"event class {node.name} carries a kind tag but is "
                    "not registered in EVENT_TYPES; traces containing it "
                    "cannot be read back",
                    mod,
                    node,
                )

    def _check_emit_sites(
        self, project: ProjectContext, mod: ModuleInfo, registered: set[str]
    ) -> Iterator[Finding]:
        for node in mod.ctx.select(ast.Call):
            if (
                not isinstance(node.func, ast.Attribute)
                or node.func.attr != "emit"
                or len(node.args) != 1
                or not isinstance(node.args[0], ast.Call)
            ):
                continue
            inner = node.args[0]
            dotted = _dotted_name(inner.func)
            if not dotted:
                continue
            cls = project.resolve_class(mod, dotted)
            if cls is None or not self._has_kind_tag(cls):
                continue
            if cls.name not in registered:
                yield _finding(
                    self.id,
                    f"emit() of event class {cls.name} which is missing "
                    "from EVENT_TYPES; register it so the trace schema "
                    "stays complete",
                    mod,
                    node,
                )


@register
class TimeAccumulationRule(Rule):
    """RPR109: no float accumulation of simulation time inside hot loops."""

    id = "RPR109"
    name = "time-accumulation"
    description = (
        "no +=/-= on simulation-time variables inside loops in hot-path "
        "packages; accumulated float steps drift — derive times from a "
        "base value instead"
    )

    #: Packages whose loops run once per packet.
    _HOT_DIRS = (
        ("repro", "sim"),
        ("repro", "core"),
        ("repro", "sched"),
        ("repro", "traffic"),
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not self._in_hot_scope(ctx.path):
            return
        seen: set[int] = set()
        for loop in ctx.select(ast.For, ast.While):
            for node in ast.walk(loop):
                if id(node) in seen or not isinstance(node, ast.AugAssign):
                    continue
                if not isinstance(node.op, (ast.Add, ast.Sub)):
                    continue
                name = _dotted_name(node.target).rsplit(".", maxsplit=1)[-1]
                if name and SimTimeRule._TIME_NAME_RE.search(name):
                    seen.add(id(node))
                    yield ctx.finding(
                        self.id,
                        f"simulation time {name!r} accumulated with "
                        f"{'+=' if isinstance(node.op, ast.Add) else '-='} "
                        "inside a loop; float error grows per iteration — "
                        "compute it as base + k * step instead",
                        node,
                    )

    @classmethod
    def _in_hot_scope(cls, path: str) -> bool:
        parts = tuple(part for part in path.replace("\\", "/").split("/") if part)
        return any(
            parts[i : i + 2] == scoped
            for scoped in cls._HOT_DIRS
            for i in range(len(parts) - 1)
        )
