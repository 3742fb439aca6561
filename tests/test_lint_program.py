"""Whole-program lint: the project indexer and RPR107/108/109.

The cross-module rules run through ``check_paths`` over miniature
multi-file projects materialised under ``tmp_path`` with a ``src/repro``
layout, so name resolution crosses real module boundaries the same way
it does over the repo.
"""

import ast
import textwrap

from repro.check.project import build_project, module_name_for
from repro.check.engine import check_paths, lint_source
from repro.check.registry import LintContext

SIM_PATH = "src/repro/sim/snippet.py"
LIB_PATH = "src/repro/analysis/snippet.py"


def write_project(tmp_path, files):
    """Materialise {relpath: source} and return the lint root."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(tmp_path / "src")


def project_rule_ids(tmp_path, files, select):
    root = write_project(tmp_path, files)
    return [finding.rule_id for finding in check_paths([root], select=select)]


class TestProjectIndexer:
    def test_module_name_strips_src_prefix(self):
        assert module_name_for("src/repro/sim/engine.py") == "repro.sim.engine"
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"

    def test_module_name_without_src_anchor(self):
        assert module_name_for("repro/core/packet.py") == "repro.core.packet"

    def _project(self, sources):
        contexts = [
            LintContext(path, textwrap.dedent(src), ast.parse(textwrap.dedent(src)))
            for path, src in sources.items()
        ]
        return build_project(contexts)

    def test_canonical_name_follows_import_alias(self):
        project = self._project(
            {"src/repro/analysis/a.py": "import numpy as np\nx = np.random.default_rng(1)\n"}
        )
        mod = project.module("repro.analysis.a")
        assert (
            project.canonical_name(mod, "np.random.default_rng")
            == "numpy.random.default_rng"
        )

    def test_canonical_name_follows_from_import(self):
        project = self._project(
            {
                "src/repro/analysis/a.py": (
                    "from numpy.random import default_rng\nx = default_rng(1)\n"
                )
            }
        )
        mod = project.module("repro.analysis.a")
        assert project.canonical_name(mod, "default_rng") == "numpy.random.default_rng"

    def test_resolve_class_across_modules(self):
        project = self._project(
            {
                "src/repro/obs/ev.py": "class Drop:\n    kind = 'drop'\n",
                "src/repro/sim/use.py": "from repro.obs.ev import Drop\n",
            }
        )
        use = project.module("repro.sim.use")
        node = project.resolve_class(use, "Drop")
        assert node is not None and node.name == "Drop"

    def test_each_file_parsed_once_shares_ast(self):
        ctx = LintContext("src/repro/x.py", "a = 1\n", ast.parse("a = 1\n"))
        project = build_project([ctx])
        assert project.modules["src/repro/x.py"].ctx is ctx


class TestRngLineageRPR107:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/analysis/a.py": """
                import numpy as np

                def make():
                    return np.random.default_rng()
                """
            },
            select=["RPR107"],
        )
        assert ids == ["RPR107"]

    def test_seeded_default_rng_clean(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/analysis/a.py": """
                import numpy as np

                def make(seed):
                    return np.random.default_rng(seed)
                """
            },
            select=["RPR107"],
        )
        assert ids == []

    def test_legacy_global_seed_flagged(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/analysis/a.py": """
                import numpy

                def setup(seed):
                    numpy.random.seed(seed)
                """
            },
            select=["RPR107"],
        )
        assert ids == ["RPR107"]

    def test_module_level_stream_flagged_even_when_seeded(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/analysis/a.py": """
                import numpy as np

                RNG = np.random.default_rng(7)
                """
            },
            select=["RPR107"],
        )
        assert ids == ["RPR107"]

    def test_stream_aliasing_across_components_flagged(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/analysis/a.py": """
                from numpy.random import Generator

                def build(rng: Generator):
                    first = SourceA(rng)
                    second = SourceB(rng)
                    return first, second
                """
            },
            select=["RPR107"],
        )
        # One finding, at the second consumer: the first hand-off is fine.
        assert ids == ["RPR107"]

    def test_spawned_children_not_aliasing(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/analysis/a.py": """
                import numpy as np

                def build(seed):
                    root = np.random.SeedSequence(seed)
                    a, b = root.spawn(2)
                    return SourceA(a), SourceB(b)
                """
            },
            select=["RPR107"],
        )
        assert ids == []

    def test_library_streams_follow_the_same_lineage(self, tmp_path):
        """``repro.sim.rng`` constructors: each fault flagged, the seeded tree clean."""
        cases = {
            "unseeded-root": (
                """
                from repro.sim.rng import Generator, SeedSequence

                def make():
                    return Generator(SeedSequence())
                """,
                ["RPR107"],
            ),
            "module-level-stream": (
                """
                from repro.sim import rng

                RNG = rng.Generator(rng.SeedSequence(7))
                """,
                ["RPR107"],
            ),
            "one-stream-two-components": (
                """
                from repro.sim.rng import Generator, SeedSequence

                def build(seed):
                    stream = Generator(SeedSequence(seed))
                    return SourceA(stream), SourceB(stream)
                """,
                ["RPR107"],
            ),
            "seeded-tree": (
                """
                from repro.sim.rng import Generator, SeedSequence

                def build(seed):
                    first, second = SeedSequence(seed).spawn(2)
                    return SourceA(Generator(first)), SourceB(Generator(second))
                """,
                [],
            ),
        }
        for name, (source, expected) in cases.items():
            files = {"src/repro/analysis/a.py": source}
            assert project_rule_ids(tmp_path / name, files, select=["RPR107"]) == expected, name

    def test_test_files_out_of_scope(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/analysis/a.py": "x = 1\n",
                "src/tests_mirror/test_a.py": (
                    "import numpy as np\nRNG = np.random.default_rng()\n"
                ),
            },
            select=["RPR107"],
        )
        assert ids == []


REGISTRY = """
class Enqueue:
    kind = "enqueue"

class Drop:
    kind = "drop"

EVENT_TYPES = {cls.kind: cls for cls in (Enqueue, Drop)}
"""


class TestTraceEventRegistryRPR108:
    def test_unregistered_kind_class_in_registry_module(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/obs/ev.py": REGISTRY
                + "\nclass Depart:\n    kind = 'depart'\n"
            },
            select=["RPR108"],
        )
        assert ids == ["RPR108"]

    def test_registered_classes_clean(self, tmp_path):
        ids = project_rule_ids(
            tmp_path, {"src/repro/obs/ev.py": REGISTRY}, select=["RPR108"]
        )
        assert ids == []

    def test_emit_of_unregistered_event_cross_module(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/obs/ev.py": REGISTRY
                + "\nclass Depart:\n    kind = 'depart'\n",
                "src/repro/sim/port.py": """
                from repro.obs.ev import Depart

                def drain(sink, t):
                    sink.emit(Depart(t))
                """,
            },
            select=["RPR108"],
        )
        # The stray class itself plus the emit site that ships it.
        assert ids == ["RPR108", "RPR108"]

    def test_emit_of_registered_event_clean(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/obs/ev.py": REGISTRY,
                "src/repro/sim/port.py": """
                from repro.obs.ev import Drop

                def drain(sink, t):
                    sink.emit(Drop(t))
                """,
            },
            select=["RPR108"],
        )
        assert ids == []

    def test_no_registry_in_pass_skips_silently(self, tmp_path):
        ids = project_rule_ids(
            tmp_path,
            {
                "src/repro/sim/port.py": """
                class Local:
                    kind = "local"
                """
            },
            select=["RPR108"],
        )
        assert ids == []


class TestTimeAccumulationRPR109:
    def rule_ids(self, source, path=SIM_PATH):
        return [
            finding.rule_id
            for finding in lint_source(
                textwrap.dedent(source), path, select=["RPR109"]
            )
        ]

    def test_loop_accumulated_time_flagged(self):
        assert self.rule_ids(
            """
            def schedule(self, step, n):
                while self.pending:
                    self._next_time += step
            """
        ) == ["RPR109"]

    def test_subtraction_also_flagged(self):
        assert self.rule_ids(
            """
            def rewind(deadline, step, items):
                for _ in items:
                    deadline -= step
            """
        ) == ["RPR109"]

    def test_non_time_counter_clean(self):
        assert self.rule_ids(
            """
            def count(items):
                total = 0
                for _ in items:
                    total += 1
                return total
            """
        ) == []

    def test_time_assignment_outside_loop_clean(self):
        assert self.rule_ids(
            """
            def advance(self, step):
                self._next_time += step
            """
        ) == []

    def test_derived_time_clean(self):
        assert self.rule_ids(
            """
            def schedule(base, step, n):
                return [base + k * step for k in range(n)]
            """
        ) == []

    def test_cold_packages_out_of_scope(self):
        source = """
            def schedule(self, step, items):
                for _ in items:
                    self._next_time += step
            """
        assert self.rule_ids(source, path=LIB_PATH) == []
        assert self.rule_ids(source, path="tests/test_snippet.py") == []
