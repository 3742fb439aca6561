"""True-positive / true-negative coverage for each RPR rule.

Every rule is exercised on purpose-built snippets through the public
``lint_source`` API with a library-like path, plus scoping checks that
library rules stay out of test/benchmark files.
"""

import textwrap

import pytest

from repro.check.engine import lint_source

LIB_PATH = "src/repro/analysis/snippet.py"
SIM_PATH = "src/repro/sim/snippet.py"
CORE_PATH = "src/repro/core/snippet.py"
TEST_PATH = "tests/test_snippet.py"


def rule_ids(source, path=LIB_PATH, select=None):
    return [finding.rule_id for finding in lint_source(textwrap.dedent(source), path, select)]


class TestDeterminismRPR101:
    def test_flags_stdlib_random_import(self):
        assert "RPR101" in rule_ids("import random\n")

    def test_flags_from_random_import(self):
        assert "RPR101" in rule_ids("from random import shuffle\n")

    def test_flags_wall_clock_calls(self):
        assert "RPR101" in rule_ids(
            """
            import time

            def stamp():
                return time.time()
            """
        )

    def test_flags_datetime_now(self):
        assert "RPR101" in rule_ids(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )

    def test_flags_id_based_ordering(self):
        assert "RPR101" in rule_ids(
            """
            def order(flows):
                return sorted(flows, key=id)
            """
        )

    def test_flags_raw_set_iteration(self):
        assert "RPR101" in rule_ids(
            """
            def drain(flows):
                for flow in set(flows):
                    flow.poll()
            """
        )

    def test_accepts_seeded_generator_and_sorted_sets(self):
        clean = """
            import numpy as np

            def drain(flows, seed):
                rng = np.random.default_rng(seed)
                for flow in sorted(set(flows)):
                    flow.poll(rng.random())
            """
        assert rule_ids(clean, select=["RPR101"]) == []


class TestUnitsRPR102:
    def test_flags_raw_mbps_conversion(self):
        assert "RPR102" in rule_ids(
            """
            def rate_bytes(rate_mbits):
                return rate_mbits * 1e6 / 8
            """
        )

    def test_flags_raw_kbyte_scaling(self):
        assert "RPR102" in rule_ids(
            """
            def size_bytes(size_kb):
                return size_kb * 1000
            """
        )

    def test_accepts_units_helpers_and_plain_arithmetic(self):
        clean = """
            from repro import units

            def rate_bytes(rate_mbits, burst):
                return units.mbps(rate_mbits) + 2 * burst / 3
            """
        assert rule_ids(clean, select=["RPR102"]) == []

    def test_accepts_constant_only_expressions(self):
        # No non-constant operand: constant folding, not a conversion.
        assert rule_ids("LIMIT = 60 * 1000\n", select=["RPR102"]) == []


class TestErrorDisciplineRPR103:
    def test_flags_bare_valueerror(self):
        assert "RPR103" in rule_ids(
            """
            def check(x):
                if x < 0:
                    raise ValueError("negative")
            """
        )

    def test_flags_bare_runtimeerror_reraise(self):
        assert "RPR103" in rule_ids("raise RuntimeError\n")

    def test_flags_assert_in_library_code(self):
        assert "RPR103" in rule_ids(
            """
            def check(x):
                assert x >= 0
            """
        )

    def test_accepts_repro_error_hierarchy(self):
        clean = """
            from repro.errors import ConfigurationError

            def check(x):
                if x < 0:
                    raise ConfigurationError(f"negative: {x}")
                raise NotImplementedError("abstract")
            """
        assert rule_ids(clean, select=["RPR103"]) == []


class TestSimTimeRPR104:
    def test_flags_float_equality_on_time(self):
        assert "RPR104" in rule_ids(
            """
            def same_instant(packet, now):
                return packet.enqueued == now
            """
        )

    def test_flags_inequality_on_time_attribute(self):
        assert "RPR104" in rule_ids(
            """
            def moved(sim, start_time):
                return sim.now != start_time
            """
        )

    def test_flags_negative_literal_delay(self):
        assert "RPR104" in rule_ids(
            """
            def rewind(sim, fn):
                sim.schedule(-0.5, fn)
            """
        )

    def test_accepts_tolerances_and_ordering(self):
        clean = """
            def fine(packet, now, sim, fn):
                late = now - packet.enqueued > 1e-9
                idle = packet.enqueued is None
                sim.schedule(0.5, fn)
                return late or idle or sim.now <= now
            """
        assert rule_ids(clean, select=["RPR104"]) == []


class TestHotPathRPR105:
    def test_flags_missing_slots_in_sim(self):
        snippet = """
            class Thing:
                def __init__(self):
                    self.x = 1
            """
        assert "RPR105" in rule_ids(snippet, path=SIM_PATH)

    def test_flags_missing_slots_in_core(self):
        snippet = """
            class Manager:
                pass
            """
        assert "RPR105" in rule_ids(snippet, path=CORE_PATH)

    @pytest.mark.parametrize("package", ["traffic", "sched", "metrics"])
    def test_flags_missing_slots_in_other_per_packet_layers(self, package):
        snippet = """
            class Shaper:
                def __init__(self):
                    self.tokens = 0.0
            """
        path = f"src/repro/{package}/snippet.py"
        assert "RPR105" in rule_ids(snippet, path=path)

    def test_flags_mutable_default_argument(self):
        assert "RPR105" in rule_ids(
            """
            def collect(values=[]):
                return values
            """
        )

    def test_accepts_slotted_and_exempt_classes(self):
        clean = """
            from dataclasses import dataclass

            class Thing:
                __slots__ = ("x",)

                def __init__(self):
                    self.x = 1

            class SnippetError(Exception):
                pass

            @dataclass
            class Record:
                x: int = 0

            def collect(values=None):
                return values or []
            """
        assert rule_ids(clean, path=SIM_PATH, select=["RPR105"]) == []

    @pytest.mark.parametrize("package", ["sim", "traffic", "sched", "core", "metrics"])
    def test_flags_schedule_fast_with_a_fresh_bound_method(self, package):
        snippet = """
            class Source:
                __slots__ = ("sim",)

                def _emit(self):
                    self.sim.schedule_fast(1.0, self._emit)
            """
        path = f"src/repro/{package}/snippet.py"
        assert rule_ids(snippet, path=path, select=["RPR105"]) == ["RPR105"]

    def test_accepts_a_callback_bound_once(self):
        clean = """
            class Source:
                __slots__ = ("sim", "_bound_emit", "_spacing")

                def __init__(self, sim):
                    self.sim = sim
                    self._spacing = 1.0
                    self._bound_emit = self._emit
                    sim.schedule_at(0.0, self._emit)

                def _emit(self):
                    self.sim.schedule_fast(self._spacing, self._bound_emit)
            """
        assert rule_ids(clean, path=SIM_PATH, select=["RPR105"]) == []

    def test_bound_callback_check_stays_in_the_per_packet_packages(self):
        snippet = """
            class Ticker:
                def _tick(self):
                    self.sim.schedule_fast(1.0, self._tick)
            """
        assert rule_ids(snippet, path="src/repro/obs/snippet.py", select=["RPR105"]) == []

    def test_no_slots_requirement_outside_hot_paths(self):
        snippet = """
            class Report:
                def __init__(self):
                    self.rows = []
            """
        assert rule_ids(snippet, path="src/repro/experiments/snippet.py", select=["RPR105"]) == []


class TestPortEncapsulationRPR106:
    SNIPPET = """
        from repro.sim.port import OutputPort

        def build(sim, scheduler, manager):
            return OutputPort(sim, 6e6, scheduler, manager)
        """

    def test_flags_direct_construction_in_library_code(self):
        assert "RPR106" in rule_ids(self.SNIPPET)

    def test_flags_attribute_style_construction(self):
        snippet = """
            import repro.sim.port as port_mod

            def build(sim, scheduler, manager):
                return port_mod.OutputPort(sim, 6e6, scheduler, manager)
            """
        assert "RPR106" in rule_ids(snippet)

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/sim/port.py",
            "src/repro/net/topology.py",
            "src/repro/experiments/fabric/build.py",
        ],
    )
    def test_port_layers_may_construct_ports(self, path):
        assert rule_ids(self.SNIPPET, path=path, select=["RPR106"]) == []

    def test_tests_and_benchmarks_exempt(self):
        assert rule_ids(self.SNIPPET, path=TEST_PATH) == []
        assert rule_ids(self.SNIPPET, path="benchmarks/bench_port.py") == []

    def test_references_without_construction_are_fine(self):
        clean = """
            from repro.experiments.fabric import run_fabric

            def run(scenario):
                return run_fabric(scenario)
            """
        assert rule_ids(clean, select=["RPR106"]) == []


class TestScoping:
    def test_library_rules_skip_test_files(self):
        bad_everywhere = """
            import random

            def check(x):
                assert x >= 0
                raise ValueError(x)
            """
        assert rule_ids(bad_everywhere, path=TEST_PATH) == []
        assert rule_ids(bad_everywhere, path="benchmarks/bench_snippet.py") == []

    def test_unknown_rule_id_rejected(self):
        from repro.check.findings import LintUsageError

        with pytest.raises(LintUsageError):
            lint_source("x = 1\n", LIB_PATH, select=["RPR999"])

    def test_syntax_error_raises_parse_error(self):
        from repro.check.findings import LintParseError

        with pytest.raises(LintParseError):
            lint_source("def broken(:\n", LIB_PATH)

    def test_findings_sorted_and_located(self):
        findings = lint_source(
            "import random\nimport time\nx = time.time()\n", LIB_PATH
        )
        assert [finding.line for finding in findings] == sorted(
            finding.line for finding in findings
        )
        assert findings[0].location().startswith(LIB_PATH)
