"""Project indexer: module symbol tables and the import graph.

Turns the per-file :class:`~repro.check.registry.LintContext` objects the
engine already holds (one parse per file, shared node index) into a
whole-program view: each file becomes a :class:`ModuleInfo` carrying its
dotted module name, top-level symbols, and import bindings; the
:class:`ProjectContext` resolves names *across* modules — through
``import numpy as np`` aliases and package ``__init__`` re-export chains
alike.  Everything here is pure AST: nothing is imported or executed, so
indexing a broken or heavyweight module costs only a parse.
"""

from __future__ import annotations

import ast
from typing import Sequence

__all__ = ["ModuleInfo", "ProjectContext"]

#: Re-export chains longer than this are treated as unresolvable.
_MAX_HOPS = 8


def module_name_for(path: str) -> str:
    """Best-effort dotted module name for a file path.

    ``src/repro/obs/events.py`` → ``repro.obs.events``;
    ``src/repro/obs/__init__.py`` → ``repro.obs``.  Paths outside a
    ``src`` root fall back to the segment starting at ``repro`` (so
    snippet paths used in tests resolve too), else to the whole
    relative path.
    """
    normalized = path.replace("\\", "/")
    parts = [part for part in normalized.split("/") if part and part != "."]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


class ModuleInfo:
    """One parsed module: symbols and import bindings, no execution."""

    __slots__ = ("name", "ctx", "is_package", "imports", "from_imports", "symbols")

    def __init__(self, name: str, ctx, is_package: bool) -> None:
        self.name = name
        self.ctx = ctx
        self.is_package = is_package
        #: local binding -> imported module ("np" -> "numpy").
        self.imports: dict[str, str] = {}
        #: local binding -> (source module, original name).
        self.from_imports: dict[str, tuple[str, str]] = {}
        #: top-level name -> defining AST node.
        self.symbols: dict[str, ast.AST] = {}
        self._index(ctx.tree)

    @property
    def path(self) -> str:
        return self.ctx.path

    @property
    def is_library(self) -> bool:
        return self.ctx.is_library

    def _index(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            self._index_statement(stmt)

    def _index_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    self.imports[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    self.imports[head] = head
        elif isinstance(stmt, ast.ImportFrom):
            source = self.from_module(stmt)
            if source is None:
                return
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                self.from_imports[alias.asname or alias.name] = (source, alias.name)
        elif isinstance(stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            self.symbols[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.symbols[target.id] = stmt
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                self.symbols[stmt.target.id] = stmt
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Index conditional tops (TYPE_CHECKING blocks, optional deps).
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._index_statement(sub)

    def from_module(self, stmt: ast.ImportFrom) -> str | None:
        """The dotted module a ``from ... import`` in this module reads."""
        if stmt.level == 0:
            return stmt.module
        # Relative import: resolve against this module's package.
        container = self.name if self.is_package else self.name.rpartition(".")[0]
        parts = container.split(".") if container else []
        drop = stmt.level - 1
        if drop > len(parts):
            return None
        if drop:
            parts = parts[:-drop]
        if stmt.module:
            parts.extend(stmt.module.split("."))
        return ".".join(parts) if parts else None


class ProjectContext:
    """The whole parsed program: modules, symbols, cross-module lookup."""

    __slots__ = ("modules", "_by_name")

    def __init__(self, files: Sequence) -> None:
        #: file path -> ModuleInfo, in ``files`` order.
        self.modules: dict[str, ModuleInfo] = {}
        self._by_name: dict[str, ModuleInfo] = {}
        for ctx in files:
            name = module_name_for(ctx.path)
            is_package = ctx.path.replace("\\", "/").endswith("/__init__.py")
            info = ModuleInfo(name, ctx, is_package)
            self.modules[ctx.path] = info
            self._by_name[name] = info

    def module(self, name: str) -> ModuleInfo | None:
        """Look up a module by dotted name (None when outside the project)."""
        return self._by_name.get(name)

    def canonical_name(self, mod: ModuleInfo, dotted: str) -> str:
        """Fully-qualified form of a dotted name as seen from ``mod``.

        ``np.random.default_rng`` with ``import numpy as np`` becomes
        ``numpy.random.default_rng``; a bare name imported through a
        project re-export chain is followed to its defining module.
        Unknown heads come back unchanged (builtins, locals).
        """
        for _ in range(_MAX_HOPS):
            head, _sep, rest = dotted.partition(".")
            if head in mod.imports:
                base = mod.imports[head]
                return f"{base}.{rest}" if rest else base
            if head in mod.from_imports:
                source, original = mod.from_imports[head]
                target = self._by_name.get(source)
                if target is not None and not rest and original != head:
                    mod, dotted = target, original
                    continue
                if target is not None and not rest:
                    # Same-name re-export: hop only if the target rebinds it.
                    if original in target.from_imports or original in target.imports:
                        mod, dotted = target, original
                        continue
                base = f"{source}.{original}"
                return f"{base}.{rest}" if rest else base
            if head in mod.symbols:
                return f"{mod.name}.{dotted}"
            return dotted
        return dotted

    def resolve_symbol(self, mod: ModuleInfo, name: str) -> tuple[ModuleInfo, ast.AST] | None:
        """Find the defining (module, node) for a bare name, following
        ``from M import name`` chains through package re-exports."""
        for _ in range(_MAX_HOPS):
            node = mod.symbols.get(name)
            if node is not None:
                return mod, node
            if name in mod.from_imports:
                source, original = mod.from_imports[name]
                target = self._by_name.get(source)
                if target is None:
                    return None
                mod, name = target, original
                continue
            return None
        return None

    def resolve_class(self, mod: ModuleInfo, dotted: str) -> ast.ClassDef | None:
        """Resolve a (possibly one-hop dotted) name to a ClassDef."""
        parts = dotted.split(".")
        if len(parts) == 1:
            resolved = self.resolve_symbol(mod, parts[0])
        elif len(parts) == 2:
            head, leaf = parts
            if head in mod.imports:
                target_name = mod.imports[head]
            elif head in mod.from_imports:
                source, original = mod.from_imports[head]
                target_name = f"{source}.{original}"
            else:
                return None
            target = self._by_name.get(target_name)
            if target is None:
                return None
            resolved = self.resolve_symbol(target, leaf)
        else:
            return None
        if resolved is None:
            return None
        _, node = resolved
        return node if isinstance(node, ast.ClassDef) else None
