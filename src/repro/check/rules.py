"""The domain rules: simulator invariants the type system cannot see.

Each rule encodes one invariant the reproduction's correctness argument
rests on (see ``docs/checking.md`` for the rationale and examples):

* **RPR101** — determinism: no wall-clock or process-global entropy
  sources, no ordering derived from ``id()`` or raw ``set`` iteration.
* **RPR102** — units: quantities stay in the canonical bytes/seconds
  system; conversions go through :mod:`repro.units`, not magic numbers.
* **RPR103** — error discipline: library code raises the eager
  :class:`~repro.errors.ReproError` hierarchy, never bare built-ins or
  ``assert`` (stripped under ``python -O``).
* **RPR104** — sim-time safety: no float ``==`` on simulation times, no
  scheduling with negative literal delays.
* **RPR105** — hot-path hygiene: classes in the per-packet packages
  declare ``__slots__`` and hand ``schedule_fast`` a callback bound
  once, not a fresh ``self.<method>``; no mutable default arguments
  anywhere.
* **RPR106** — port encapsulation: ``OutputPort`` is constructed only by
  the port layers (``repro.sim``, ``repro.net``,
  ``repro.experiments.fabric``); everything else goes through the
  scenario fabric, which wires downstream hops, collectors and node
  labels consistently.

The checks are deliberately syntactic: they over-approximate in known,
documented ways and rely on ``# repro: noqa`` for the rare deliberate
exception, trading completeness for zero false negatives on the patterns
that have actually bitten simulator reproductions.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.check.findings import Finding
from repro.check.registry import LintContext, Rule, register

__all__ = [
    "SimTimeRule",
]


def _dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of a Name/Attribute chain ('' otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@register
class DeterminismRule(Rule):
    """RPR101: ban nondeterministic entropy and ordering sources."""

    id = "RPR101"
    name = "determinism"
    description = (
        "no module-level random state, wall-clock reads, id()-based "
        "ordering, or raw set iteration in simulator code"
    )

    #: Calls that read wall-clock time or process-global entropy.
    _BANNED_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "os.urandom",
            "uuid.uuid1",
            "uuid.uuid4",
        }
    )
    #: datetime constructors that embed "now".
    _BANNED_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
    _ORDERING_CALLS = frozenset({"sorted", "min", "max", "sort"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.select(ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield ctx.finding(
                        self.id,
                        "import of stdlib 'random' (module-level global "
                        "state); use a seeded repro.sim.rng Generator passed in "
                        "explicitly",
                        node,
                    )
        for node in ctx.select(ast.ImportFrom):
            if node.module == "random":
                yield ctx.finding(
                    self.id,
                    "import from stdlib 'random' (module-level global "
                    "state); use a seeded repro.sim.rng Generator passed in "
                    "explicitly",
                    node,
                )
        for node in ctx.select(ast.Call):
            yield from self._check_call(ctx, node)
        for node in ctx.select(ast.For, ast.comprehension):
            iter_node = node.iter
            if self._is_set_expression(iter_node):
                yield ctx.finding(
                    self.id,
                    "iteration over an unordered set; sort it before "
                    "letting it feed scheduling or accounting decisions",
                    iter_node,
                )

    def _check_call(self, ctx: LintContext, node: ast.Call) -> Iterator[Finding]:
        dotted = _dotted_name(node.func)
        if dotted in self._BANNED_CALLS:
            yield ctx.finding(
                self.id,
                f"call to {dotted}() reads wall-clock/process entropy; "
                "simulation state must derive from Simulator.now and seeds",
                node,
            )
        elif isinstance(node.func, ast.Attribute) and (
            node.func.attr in self._BANNED_DATETIME_ATTRS
            and any(part in ("datetime", "date") for part in dotted.split("."))
        ):
            yield ctx.finding(
                self.id,
                f"call to {dotted}() embeds wall-clock time; simulation "
                "timestamps must come from Simulator.now",
                node,
            )
        # id()-derived ordering: sorted(xs, key=id) or key=lambda x: id(x).
        callee = dotted.rsplit(".", maxsplit=1)[-1]
        if callee in self._ORDERING_CALLS:
            for keyword in node.keywords:
                if keyword.arg == "key" and self._key_uses_id(keyword.value):
                    yield ctx.finding(
                        self.id,
                        "ordering keyed on id(); object addresses vary "
                        "between runs — key on a sequence number instead",
                        keyword.value,
                    )

    @staticmethod
    def _key_uses_id(key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        if isinstance(key, ast.Lambda):
            return any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
                for sub in ast.walk(key.body)
            )
        return False

    @staticmethod
    def _is_set_expression(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )


@register
class UnitsRule(Rule):
    """RPR102: conversions must go through repro.units helpers."""

    id = "RPR102"
    name = "units"
    description = (
        "no raw magic-number unit conversions (1e6, 1000, 125000...); "
        "use repro.units (mbps, kbytes, ...) helpers"
    )

    #: Multiplicative factors that only appear in rate/size conversions
    #: under the library's decimal bytes/seconds convention.
    _CONVERSION_FACTORS = frozenset(
        {1_000, 1_000_000, 1_000_000_000, 125_000, 125_000_000, 8_000_000}
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        chain_roots = self._multiplicative_chain_roots(ctx)
        for root in chain_roots:
            constants, others = self._chain_leaves(root)
            if not others:
                continue  # constant folding, not a conversion of a quantity
            factors = sorted(
                {value for value in constants if value in self._CONVERSION_FACTORS}
            )
            if factors:
                pretty = ", ".join(str(factor) for factor in factors)
                yield ctx.finding(
                    self.id,
                    f"raw unit-conversion factor ({pretty}) in arithmetic; "
                    "use the repro.units helpers so bytes/seconds stay "
                    "canonical",
                    root,
                )

    @staticmethod
    def _multiplicative_chain_roots(ctx: LintContext) -> list[ast.BinOp]:
        """Top-most Mult/Div BinOps (each chain reported once)."""
        binops = [
            node
            for node in ctx.select(ast.BinOp)
            if isinstance(node.op, (ast.Mult, ast.Div))
        ]
        children_of_chains: set[int] = set()
        for node in binops:
            for side in (node.left, node.right):
                if isinstance(side, ast.BinOp) and isinstance(
                    side.op, (ast.Mult, ast.Div)
                ):
                    children_of_chains.add(id(side))
        return [node for node in binops if id(node) not in children_of_chains]

    @classmethod
    def _chain_leaves(cls, node: ast.AST) -> tuple[list[float], list[ast.AST]]:
        """Split a Mult/Div chain into numeric-constant and other leaves."""
        constants: list[float] = []
        others: list[ast.AST] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, ast.BinOp) and isinstance(
                current.op, (ast.Mult, ast.Div)
            ):
                stack.append(current.left)
                stack.append(current.right)
            elif isinstance(current, ast.Constant) and isinstance(
                current.value, (int, float)
            ):
                constants.append(float(current.value))
            else:
                others.append(current)
        return constants, others


@register
class ErrorDisciplineRule(Rule):
    """RPR103: library errors must be ReproError subclasses, not built-ins."""

    id = "RPR103"
    name = "error-discipline"
    description = (
        "library code must raise ReproError subclasses; bare built-in "
        "exceptions and assert statements are banned"
    )

    _BANNED_EXCEPTIONS = frozenset(
        {
            "ValueError",
            "TypeError",
            "RuntimeError",
            "KeyError",
            "IndexError",
            "ArithmeticError",
            "AssertionError",
            "Exception",
            "BaseException",
        }
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.select(ast.Assert):
            yield ctx.finding(
                self.id,
                "assert in library code is stripped under 'python -O'; "
                "raise SimulationError/ConfigurationError explicitly",
                node,
            )
        for node in ctx.select(ast.Raise):
            if node.exc is None:
                continue
            exc = node.exc
            name = ""
            if isinstance(exc, ast.Call):
                name = _dotted_name(exc.func)
            elif isinstance(exc, (ast.Name, ast.Attribute)):
                name = _dotted_name(exc)
            if name.rsplit(".", maxsplit=1)[-1] in self._BANNED_EXCEPTIONS:
                yield ctx.finding(
                    self.id,
                    f"raise of bare {name}; internal inconsistencies "
                    "must surface as a ReproError subclass "
                    "(SimulationError, ConfigurationError, ...)",
                    node,
                )


@register
class SimTimeRule(Rule):
    """RPR104: float simulation times compare with tolerances, not ``==``."""

    id = "RPR104"
    name = "sim-time-safety"
    description = (
        "no float ==/!= on simulation times; no scheduling with negative "
        "literal delays"
    )

    #: Identifier fragments marking a value as a simulation timestamp.
    _TIME_NAME_RE = re.compile(
        r"(?:^|_)(?:time|now|enqueued|deadline|timestamp)(?:_|$)|_at$"
    )
    _SCHEDULE_CALLS = frozenset({"schedule_fast", "schedule_at"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ctx.select(ast.Compare):
            yield from self._check_compare(ctx, node)
        for node in ctx.select(ast.Call):
            yield from self._check_schedule(ctx, node)

    def _check_compare(self, ctx: LintContext, node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                name = _dotted_name(side).rsplit(".", maxsplit=1)[-1]
                if name and self._TIME_NAME_RE.search(name):
                    yield ctx.finding(
                        self.id,
                        f"float equality on simulation time ({name!r}); "
                        "compare with an explicit tolerance or ordering",
                        node,
                    )
                    break

    def _check_schedule(self, ctx: LintContext, node: ast.Call) -> Iterator[Finding]:
        callee = _dotted_name(node.func).rsplit(".", maxsplit=1)[-1]
        if callee not in self._SCHEDULE_CALLS or not node.args:
            return
        first = node.args[0]
        if (
            isinstance(first, ast.UnaryOp)
            and isinstance(first.op, ast.USub)
            and isinstance(first.operand, ast.Constant)
            and isinstance(first.operand.value, (int, float))
            and first.operand.value > 0
        ):
            yield ctx.finding(
                self.id,
                f"{callee}() with a negative literal delay; events cannot "
                "be scheduled in the past (SimulationError at runtime)",
                node,
            )


@register
class HotPathRule(Rule):
    """RPR105: hot-path classes use __slots__ and pre-bound callbacks; no mutable default args."""

    id = "RPR105"
    name = "hot-path-hygiene"
    description = (
        "classes in repro.sim/core/traffic/sched/metrics must declare __slots__ "
        "and pass schedule_fast a callback bound once; mutable default "
        "arguments are banned everywhere"
    )

    _SLOTS_DIRS = tuple(("repro", p) for p in ("sim", "core", "traffic", "sched", "metrics"))
    #: Base-class names whose subclasses get no benefit from __slots__.
    _EXEMPT_BASE_SUFFIXES = ("Error", "Exception", "Warning")
    _EXEMPT_BASES = frozenset({"Protocol", "Enum", "IntEnum", "NamedTuple", "TypedDict"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if self._in_slots_scope(ctx.path):
            for node in ctx.select(ast.ClassDef):
                if self._needs_slots(node):
                    yield ctx.finding(
                        self.id,
                        f"class {node.name} in a hot-path package lacks "
                        "__slots__; per-instance dicts dominate memory at "
                        "millions of packets",
                        node,
                    )
            yield from self._check_callbacks(ctx)
        for node in ctx.select(ast.FunctionDef, ast.AsyncFunctionDef):
            yield from self._check_defaults(ctx, node)

    def _check_callbacks(self, ctx: LintContext) -> Iterator[Finding]:
        """``schedule_fast(..., self.<method>, ...)`` builds a bound method per call.

        ``<method>`` is any method defined in the file, so a subclass
        scheduling its base's method is caught when both live together.
        """
        methods = {
            statement.name
            for cls in ctx.select(ast.ClassDef)
            for statement in cls.body
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ctx.select(ast.Call):
            if not (isinstance(node.func, ast.Attribute) and node.func.attr == "schedule_fast"):
                continue
            for arg in (*node.args, *(keyword.value for keyword in node.keywords)):
                if (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"
                    and arg.attr in methods
                ):
                    yield ctx.finding(
                        self.id,
                        f"schedule_fast() given self.{arg.attr}, a new bound "
                        "method on every call; bind the callback once in "
                        "`__init__`",
                        arg,
                    )

    @classmethod
    def _in_slots_scope(cls, path: str) -> bool:
        parts = tuple(part for part in path.replace("\\", "/").split("/") if part)
        return any(
            parts[i : i + 2] == scoped
            for scoped in cls._SLOTS_DIRS
            for i in range(len(parts) - 1)
        )

    @classmethod
    def _needs_slots(cls, node: ast.ClassDef) -> bool:
        if node.decorator_list:
            return False  # dataclasses etc. manage their own layout
        for base in node.bases:
            base_name = _dotted_name(base).rsplit(".", maxsplit=1)[-1]
            if base_name in cls._EXEMPT_BASES or base_name.endswith(
                cls._EXEMPT_BASE_SUFFIXES
            ):
                return False
        for statement in node.body:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return False
        return True

    def _check_defaults(
        self, ctx: LintContext, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        defaults = [*node.args.defaults, *node.args.kw_defaults]
        for default in defaults:
            if default is None:
                continue
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            ):
                yield ctx.finding(
                    self.id,
                    f"mutable default argument in {node.name}(); the object "
                    "is shared across calls — default to None instead",
                    default,
                )


@register
class PortEncapsulationRule(Rule):
    """RPR106: OutputPort construction is reserved for the port layers."""

    id = "RPR106"
    name = "port-encapsulation"
    description = (
        "no direct OutputPort construction outside repro.sim, repro.net, "
        "and repro.experiments.fabric; build topologies through the "
        "scenario fabric"
    )

    #: Path-component sequences allowed to construct ports.  These are
    #: the layers that uphold the port invariants: every hop's port is
    #: chained to its downstream node, and multi-port runs carry node
    #: labels on their trace events.
    _ALLOWED_DIRS = (
        ("repro", "sim"),
        ("repro", "net"),
        ("repro", "experiments", "fabric"),
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if self._is_port_layer(ctx.path):
            return
        for node in ctx.select(ast.Call):
            if _dotted_name(node.func).rsplit(".", maxsplit=1)[-1] == "OutputPort":
                yield ctx.finding(
                    self.id,
                    "direct OutputPort construction outside the port "
                    "layers; build the topology through "
                    "repro.experiments.fabric (or repro.net) so hop-chaining "
                    "and node-labelling invariants are enforced",
                    node,
                )

    @classmethod
    def _is_port_layer(cls, path: str) -> bool:
        parts = tuple(part for part in path.replace("\\", "/").split("/") if part)
        return any(
            parts[i : i + len(scoped)] == scoped
            for scoped in cls._ALLOWED_DIRS
            for i in range(len(parts))
        )
