"""The buffer-invariant auditor: RPR201/202/204 and the severity model.

Scenarios without churn get ``warning`` findings restricted to the
conformant subpopulation (overload is the paper's own method); churn
scenarios mirror the fabric's pre-booking, which raises at run time, so
their findings carry ``error`` severity.
"""

import dataclasses

from repro.check.invariants import check_scenario, check_spec_file
from repro.check.registry import INVARIANT_CATALOG
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.fabric.scenario import (
    ChurnSpec,
    LinkSpec,
    NetworkScenario,
    NodeSpec,
    RoutedFlow,
)
from repro.experiments.schemes import Scheme
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes


def flow(flow_id=0, bucket=kbytes(50.0), token_rate=mbps(2.0), conformant=True):
    return FlowSpec(
        flow_id=flow_id,
        peak_rate=mbps(80.0),
        avg_rate=mbps(1.0),
        bucket=bucket,
        token_rate=token_rate,
        conformant=conformant,
        mean_burst=bucket,
    )


def single(flows, buffer_size, scheme=Scheme.FIFO_THRESHOLD, link_rate=mbps(48.0)):
    return NetworkScenario.single_node(
        flows, scheme, buffer_size, link_rate=link_rate, sim_time=2.0
    )


def tandem(*, buffer_size=mbytes(1.0), scheme=Scheme.FIFO_THRESHOLD, churn=None,
           flows=(), link_rate=mbps(48.0)):
    return NetworkScenario(
        nodes=(
            NodeSpec(name="a", scheme=scheme, buffer_size=buffer_size),
            NodeSpec(name="b"),
        ),
        links=(LinkSpec("a", "b", link_rate),),
        flows=tuple(flows),
        churn=churn,
        sim_time=2.0,
    )


def churn_spec(template, routes=(("a", "b"),)):
    return ChurnSpec(
        arrival_rate=2.0, mean_holding=1.0, templates=(template,), routes=routes
    )


class TestCatalog:
    def test_catalog_covers_all_invariant_codes(self):
        assert sorted(INVARIANT_CATALOG) == [
            "RPR201",
            "RPR202",
            "RPR203",
            "RPR204",
            "RPR205",
            "RPR206",
        ]


class TestNonChurnWarnings:
    def test_fitting_population_is_clean(self):
        scenario = single([flow()], buffer_size=mbytes(1.0))
        assert check_scenario(scenario) == []

    def test_oversubscribed_buffer_is_rpr201_warning(self):
        scenario = single([flow(bucket=kbytes(50.0))], buffer_size=kbytes(10.0))
        findings = check_scenario(scenario)
        assert [finding.rule_id for finding in findings] == ["RPR201"]
        assert findings[0].severity == "warning"

    def test_rate_overflow_is_rpr202_warning(self):
        scenario = single(
            [flow(token_rate=mbps(60.0))],
            buffer_size=mbytes(4.0),
            link_rate=mbps(48.0),
        )
        findings = check_scenario(scenario)
        assert [finding.rule_id for finding in findings] == ["RPR202"]
        assert findings[0].severity == "warning"

    def test_non_conformant_overload_is_not_audited(self):
        # Overloading a port with non-conformant traffic is the paper's
        # experimental method; only conformant flows carry the lossless
        # guarantee the invariant protects.
        scenario = single(
            [flow(bucket=mbytes(5.0), conformant=False)], buffer_size=kbytes(100.0)
        )
        assert check_scenario(scenario) == []


class TestChurnErrors:
    def test_demo_tandem_is_clean(self):
        assert check_scenario(demo_tandem(hops=2)) == []

    def test_shrunken_buffers_fail_pre_booking_with_errors(self):
        scenario = demo_tandem(hops=2)
        scenario = dataclasses.replace(
            scenario,
            nodes=tuple(
                node
                if node.buffer_size is None
                else dataclasses.replace(node, buffer_size=2000.0)
                for node in scenario.nodes
            ),
        )
        findings = check_scenario(scenario)
        assert findings
        assert {finding.rule_id for finding in findings} == {"RPR201"}
        assert all(finding.severity == "error" for finding in findings)

    def test_non_fifo_scheme_at_churn_hop_is_rpr204(self):
        scenario = tandem(
            scheme=Scheme.WFQ_THRESHOLD, churn=churn_spec(flow(flow_id=1))
        )
        findings = check_scenario(scenario)
        assert [finding.rule_id for finding in findings] == ["RPR204"]
        assert "FIFO-family" in findings[0].message
        assert findings[0].severity == "error"

    def test_infeasible_churn_region_is_rpr204(self):
        # The static flow books cleanly, but every dynamic template is
        # too bursty to fit the residual region on any route.
        scenario = tandem(
            flows=[RoutedFlow(spec=flow(), route=("a", "b"))],
            churn=churn_spec(flow(flow_id=1, bucket=mbytes(4.0))),
        )
        findings = check_scenario(scenario)
        assert [finding.rule_id for finding in findings] == ["RPR204"]
        assert "infeasible" in findings[0].message

    def test_feasible_churn_is_clean(self):
        scenario = tandem(
            flows=[RoutedFlow(spec=flow(), route=("a", "b"))],
            churn=churn_spec(flow(flow_id=1)),
        )
        assert check_scenario(scenario) == []

    def test_named_findings_are_prefixed(self):
        scenario = single([flow(bucket=kbytes(50.0))], buffer_size=kbytes(10.0))
        findings = check_scenario(scenario, path="spec.json", name="fig1")
        assert findings[0].message.startswith("spec 'fig1': ")
        assert findings[0].path == "spec.json"


class TestSpecFiles:
    def test_shipped_example_specs_are_clean(self):
        assert check_spec_file("examples/specs/table1_thresholds.json") == []
        assert check_spec_file("examples/specs/tandem_churn.json") == []

    def test_unreadable_file_is_rpr203(self):
        findings = check_spec_file("examples/specs/does_not_exist.json")
        assert [finding.rule_id for finding in findings] == ["RPR203"]

    def test_invalid_json_is_rpr203(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{not json", encoding="utf-8")
        findings = check_spec_file(target)
        assert [finding.rule_id for finding in findings] == ["RPR203"]

    def test_unknown_scheme_in_spec_is_rpr203(self, tmp_path):
        target = tmp_path / "spec.json"
        target.write_text(
            '{"name": "x", "workload": "table1", "scheme": "NO_SUCH", '
            '"buffer_mb": 1.0, "sim_time": 1.0, "seeds": [1], '
            '"metrics": ["utilization"]}',
            encoding="utf-8",
        )
        findings = check_spec_file(target)
        assert [finding.rule_id for finding in findings] == ["RPR203"]
        assert "'x'" in findings[0].message
