"""The buffer-invariant auditor: RPR201/202/204 and the severity model.

Scenarios without churn get ``warning`` findings restricted to the
conformant subpopulation (overload is the paper's own method); churn
scenarios are booked through the fabric's own pre-booking, which raises
at run time, so their findings carry ``error`` severity.
"""

import dataclasses
import pathlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from tests.conftest import examples
from repro.check.artifacts import check_data_file
from repro.check.engine import check_paths
from repro.check.invariants import check_scenario
from repro.check.registry import INVARIANT_CATALOG
from repro.errors import ConfigurationError
from repro.experiments.campaign import ScenarioJob
from repro.experiments.campaign.runner import preflight_jobs
from repro.experiments.fabric.build import run_fabric
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


def shaped(flow_id, sigma, rho):
    """A conformant flow reserving ``(sigma, rho)``, emitting at half ``rho``."""
    return FlowSpec(
        flow_id=flow_id,
        peak_rate=2.0 * rho,
        avg_rate=0.5 * rho,
        bucket=sigma,
        token_rate=rho,
        conformant=True,
        mean_burst=sigma,
    )


def one_link_churn(template, *, static=None, admission="wfq", reclamation=True,
                   buffer_size=10_000.0, link_rate=1e6):
    """One FIFO_THRESHOLD link a->b with churn, and at most one static flow."""
    return NetworkScenario(
        nodes=(
            NodeSpec(name="a", scheme=Scheme.FIFO_THRESHOLD, buffer_size=buffer_size),
            NodeSpec(name="b"),
        ),
        links=(LinkSpec("a", "b", link_rate),),
        flows=() if static is None else (RoutedFlow(spec=static, route=("a", "b")),),
        churn=ChurnSpec(
            arrival_rate=200.0,
            mean_holding=0.05,
            templates=(template,),
            routes=(("a", "b"),),
            admission=admission,
            reclamation=reclamation,
        ),
        sim_time=0.2,
        seed=3,
    )


def codes(findings, *wanted):
    return [f.rule_id for f in findings if f.rule_id in wanted and f.severity == "error"]


class TestReclamationAgreesWithFabric:
    """Under reclamation the live buffer test is the pool (eq. 9 over
    base thresholds ``sigma + rho B / R``), whatever the admission mode.
    The auditor used to ask the WFQ region instead (``sum(sigma) <= B``)
    and passed both of these scenarios, which the fabric refuses."""

    def test_template_only_the_pool_refuses_is_rpr204(self):
        # sigma = B/2 fits the WFQ region; the base threshold
        # 5,000 + 0.9 * 10,000 = 14,000 bytes does not fit the pool.
        scenario = one_link_churn(shaped(0, 5_000.0, 0.9e6))
        findings = check_scenario(scenario)
        assert [f.rule_id for f in findings] == ["RPR204"]
        assert "infeasible" in findings[0].message
        report = run_fabric(scenario).churn
        assert report.arrivals > 0
        assert report.accepted == 0
        assert report.blocked_buffer == report.arrivals

    def test_static_only_the_pool_refuses_is_rpr201(self):
        scenario = one_link_churn(
            shaped(0, 500.0, 1e4), static=shaped(1, 5_000.0, 0.9e6)
        )
        findings = check_scenario(scenario)
        assert [(f.rule_id, f.severity) for f in findings] == [("RPR201", "error")]
        with pytest.raises(ConfigurationError, match="1 invariant violation"):
            preflight_jobs({"job": ScenarioJob(scenario)}, "rejected")
        # The fabric's own refusal, not the pool's reservation error.
        with pytest.raises(
            ConfigurationError, match="static flow 1 does not fit the admission region"
        ):
            run_fabric(scenario)


class TestStaticAgreesWithLive:
    """``repro check`` and the running fabric decide admission alike.

    One link, one static flow, one template, one route.  The books
    change only when a flow is accepted, so the first arrival's decision
    is every arrival's: no template fits (RPR204) exactly when the run
    accepts none.
    """

    @given(
        admission=st.sampled_from(("auto", "fifo", "wfq")),
        reclamation=st.booleans(),
        buffer_size=st.floats(5_000.0, 50_000.0),
        link_rate=st.floats(2e5, 2e6),
        static=st.tuples(st.floats(0.1, 0.6), st.floats(0.02, 0.6)),
        template=st.tuples(st.floats(0.1, 1.2), st.floats(0.02, 1.05)),
    )
    @settings(max_examples=examples(150), deadline=None)
    def test_check_scenario_agrees_with_run_fabric(
        self, admission, reclamation, buffer_size, link_rate, static, template
    ):
        # Burst and rate are drawn as fractions of B and R; a burst of at
        # least B/10 is at least one 500-byte packet.  The static stays
        # small enough that the template's test is often the close call.
        scenario = one_link_churn(
            shaped(0, template[0] * buffer_size, template[1] * link_rate),
            static=shaped(1, static[0] * buffer_size, static[1] * link_rate),
            admission=admission,
            reclamation=reclamation,
            buffer_size=buffer_size,
            link_rate=link_rate,
        )
        findings = check_scenario(scenario)
        refused = bool(codes(findings, "RPR201", "RPR202"))
        try:
            result = run_fabric(scenario)
        except ConfigurationError:
            assert refused, "the fabric refused a static the auditor booked"
            return
        assert not refused, "the auditor refused a static the fabric booked"
        assume(result.churn.arrivals > 0)
        assert bool(codes(findings, "RPR204")) == (result.churn.accepted == 0)


class TestSpecFiles:
    def test_shipped_example_specs_are_clean(self):
        assert check_paths(
            ["examples/specs/table1_thresholds.json", "examples/specs/tandem_churn.json"]
        ) == []

    def test_unreadable_file_is_rpr203(self):
        missing = pathlib.Path("examples/specs/does_not_exist.json")
        findings = check_data_file(missing, explicit=True)
        assert [finding.rule_id for finding in findings] == ["RPR203"]

    def test_invalid_json_is_rpr203(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text("{not json", encoding="utf-8")
        findings = check_paths([str(target)])
        assert [finding.rule_id for finding in findings] == ["RPR203"]

    def test_non_finite_parameter_is_rpr203(self, tmp_path):
        # Python's json reads NaN; the entry used to audit clean, then
        # its job's digest raised a bare ValueError.
        target = tmp_path / "spec.json"
        target.write_text(
            '{"name": "x", "workload": "table1", "scheme": "FIFO_THRESHOLD", '
            '"buffer_mb": NaN, "sim_time": 1.0, "seeds": [1], '
            '"metrics": ["utilization"]}',
            encoding="utf-8",
        )
        findings = check_paths([str(target)])
        assert [finding.rule_id for finding in findings] == ["RPR203"]
        assert "'buffer_mb' must be finite" in findings[0].message

    def test_unknown_scheme_in_spec_is_rpr203(self, tmp_path):
        target = tmp_path / "spec.json"
        target.write_text(
            '{"name": "x", "workload": "table1", "scheme": "NO_SUCH", '
            '"buffer_mb": 1.0, "sim_time": 1.0, "seeds": [1], '
            '"metrics": ["utilization"]}',
            encoding="utf-8",
        )
        findings = check_paths([str(target)])
        assert [finding.rule_id for finding in findings] == ["RPR203"]
        assert "'x'" in findings[0].message
