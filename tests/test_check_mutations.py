"""Mutation smoke: every invariant class catches its seeded violation.

Each test plants exactly one defect — an oversubscribed buffer, a rate
overflow, a broken route, an infeasible churn region, a stale schema
tag, a leaky buffer-pool trace, an orphan RNG stream, an unregistered
trace event, a hot-loop time accumulation, a per-call bound method
handed to ``schedule_fast`` — and asserts the auditor/linter reports
the matching finding code.  This is the proof that the checks detect,
not just that they stay quiet on clean input.
"""

import dataclasses
import json
import pathlib
import textwrap

from repro.check.cli import check_paths, failing
from repro.check.invariants import check_scenario, check_scenario_dict
from repro.obs.events import TRACE_SCHEMA
from repro.experiments.fabric.demo import demo_tandem
from repro.lint import lint_paths

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def seeded_codes(findings):
    return sorted({finding.rule_id for finding in findings})


def mutated_tandem(**overrides):
    return dataclasses.replace(demo_tandem(hops=2), **overrides)


class TestInvariantMutations:
    def test_oversubscribed_buffer_raises_rpr201(self):
        scenario = mutated_tandem()
        scenario = dataclasses.replace(
            scenario,
            nodes=tuple(
                node
                if node.buffer_size is None
                else dataclasses.replace(node, buffer_size=2000.0)
                for node in scenario.nodes
            ),
        )
        assert seeded_codes(check_scenario(scenario)) == ["RPR201"]

    def test_rate_overflow_raises_rpr202(self):
        scenario = mutated_tandem()
        scenario = dataclasses.replace(
            scenario,
            links=tuple(
                dataclasses.replace(link, rate=link.rate / 1000.0)
                for link in scenario.links
            ),
        )
        assert "RPR202" in seeded_codes(check_scenario(scenario))

    def test_broken_route_raises_rpr203(self):
        raw = demo_tandem(hops=2).to_dict()
        raw["flows"][0]["route"] = ["n0", "n2"]  # skips the n0->n1 hop
        assert seeded_codes(check_scenario_dict(raw)) == ["RPR203"]

    def test_infeasible_churn_raises_rpr204(self):
        scenario = demo_tandem(hops=2)
        churn = scenario.churn
        churn = dataclasses.replace(
            churn,
            templates=tuple(
                dataclasses.replace(template, bucket=4_000_000.0, mean_burst=4_000_000.0)
                for template in churn.templates
            ),
        )
        assert seeded_codes(
            check_scenario(dataclasses.replace(scenario, churn=churn))
        ) == ["RPR204"]

    def test_stale_schema_tag_raises_rpr205(self, tmp_path):
        target = tmp_path / "old.json"
        target.write_text(json.dumps({"schema": "repro-timeline-v0"}), encoding="utf-8")
        findings = check_paths([str(target)])
        assert seeded_codes(findings) == ["RPR205"]
        assert failing(findings)  # error severity: fails the gate

    def test_leaky_pool_trace_raises_rpr206(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        header = {"schema": TRACE_SCHEMA}
        leaky = {
            "kind": "pool",
            "time": 1.0,
            "reserved": 400.0,
            "headroom": 100.0,
            "holes": 400.0,  # 400 + 100 + 400 != 1000
            "capacity": 1000.0,
            "flows": 1,
            "node": "n0->n1",
        }
        target.write_text(
            json.dumps(header) + "\n" + json.dumps(leaky) + "\n", encoding="utf-8"
        )
        findings = check_paths([str(target)])
        assert seeded_codes(findings) == ["RPR206"]
        assert failing(findings)


def lint_codes(tmp_path, relpath, source):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return seeded_codes(lint_paths([str(tmp_path / "src")]))


class TestProgramRuleMutations:
    def test_orphan_rng_raises_rpr107(self, tmp_path):
        # The fabric's own source, with its root stream unseeded.
        relpath = "src/repro/experiments/fabric/build.py"
        source = (SRC / "repro" / "experiments" / "fabric" / "build.py").read_text(
            encoding="utf-8"
        )
        assert lint_codes(tmp_path / "clean", relpath, source) == []
        mutated = source.replace("SeedSequence(scenario.seed)", "SeedSequence()")
        assert mutated != source
        assert lint_codes(tmp_path / "mutated", relpath, mutated) == ["RPR107"]

    def test_unregistered_event_raises_rpr108(self, tmp_path):
        assert "RPR108" in lint_codes(
            tmp_path,
            "src/repro/obs/ev.py",
            """
            class Enqueue:
                kind = "enqueue"

            class Rogue:
                kind = "rogue"

            EVENT_TYPES = {cls.kind: cls for cls in (Enqueue,)}
            """,
        )

    def test_per_call_bound_method_in_the_port_raises_rpr105(self, tmp_path):
        # The port's own source, with the pre-bound callback of an idle
        # link's first transmission put back to the per-call
        # ``self._finish_transmission``.
        source = (SRC / "repro" / "sim" / "port.py").read_text(encoding="utf-8")
        assert lint_codes(tmp_path / "clean", "src/repro/sim/port.py", source) == []
        mutated = source.replace("self._bound_finish)", "self._finish_transmission)")
        assert mutated != source
        assert lint_codes(tmp_path / "mutated", "src/repro/sim/port.py", mutated) == ["RPR105"]

    def test_hot_loop_accumulation_raises_rpr109(self, tmp_path):
        assert "RPR109" in lint_codes(
            tmp_path,
            "src/repro/sim/clock.py",
            """
            def drain(self, step):
                while self.pending:
                    self._next_time += step
            """,
        )
