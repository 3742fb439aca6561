"""NetworkScenario error paths: constructor and checker reject alike.

Every malformed input is pushed through both gates — direct
construction (``NetworkScenario.from_dict`` raising
``ConfigurationError``) and the static auditor (``check_spec_entry`` on
an entry carrying the raw scenario inline, returning an RPR203 finding)
— so the two can never drift apart on what counts as a valid scenario.
"""

import copy
import dataclasses

import pytest

from repro.check.invariants import check_spec_entry
from repro.errors import ConfigurationError
from repro.experiments.campaign import ScenarioJob
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.fabric.scenario import NetworkScenario
from repro.experiments.schemes import Scheme
from repro.units import kbytes, mbps, mbytes


def base_dict():
    """A well-formed 2-hop tandem with churn, as raw dict data."""
    return {
        "nodes": [
            {
                "name": "a",
                "scheme": "FIFO_THRESHOLD",
                "buffer_size": mbytes(1.0),
                "headroom": 0.05,
                "groups": None,
            },
            {
                "name": "b",
                "scheme": "FIFO_THRESHOLD",
                "buffer_size": mbytes(1.0),
                "headroom": 0.05,
                "groups": None,
            },
            {
                "name": "c",
                "scheme": None,
                "buffer_size": None,
                "headroom": 0.05,
                "groups": None,
            },
        ],
        "links": [
            {"src": "a", "dst": "b", "rate": mbps(48.0)},
            {"src": "b", "dst": "c", "rate": mbps(48.0)},
        ],
        "flows": [
            {
                "spec": {
                    "flow_id": 0,
                    "peak_rate": mbps(10.0),
                    "avg_rate": mbps(1.0),
                    "bucket": kbytes(50.0),
                    "token_rate": mbps(2.0),
                    "conformant": True,
                    "mean_burst": kbytes(50.0),
                },
                "route": ["a", "b", "c"],
            }
        ],
        "churn": {
            "arrival_rate": 2.0,
            "mean_holding": 1.0,
            "templates": [
                {
                    "flow_id": 0,
                    "peak_rate": mbps(10.0),
                    "avg_rate": mbps(1.0),
                    "bucket": kbytes(50.0),
                    "token_rate": mbps(2.0),
                    "conformant": True,
                    "mean_burst": kbytes(50.0),
                }
            ],
            "routes": [["a", "b", "c"]],
            "admission": "auto",
        },
        "sim_time": 2.0,
        "warmup": 0.2,
        "seed": 1,
        "packet_size": 1000.0,
        "delay_histograms": False,
        "max_events": None,
        # Written by the v2 layout; no longer a field.
        "recycle": True,
    }


def mutate(**overrides):
    raw = copy.deepcopy(base_dict())
    raw.update(overrides)
    return raw


def audit_raw(raw):
    """The auditor's findings on raw scenario data, through its spec gate."""
    return check_spec_entry({"name": "raw", "network": raw}, "<scenario>")


def assert_both_reject(raw, fragment):
    """Constructor raises; checker reports the same defect as RPR203."""
    with pytest.raises(ConfigurationError, match=fragment):
        NetworkScenario.from_dict(raw)
    findings = audit_raw(raw)
    assert [finding.rule_id for finding in findings] == ["RPR203"]
    assert findings[0].severity == "error"


class TestBaseDictIsValid:
    def test_constructs_and_audits_clean(self):
        scenario = NetworkScenario.from_dict(base_dict())
        assert len(scenario.flows) == 1
        assert audit_raw(base_dict()) == []
        # The stale v2 key loads (ignored) and is not written back ...
        assert "recycle" not in scenario.to_dict()
        # ... but a whole job of the retired fabric family is refused by
        # its schema tag, the same scenario under the one tag is a job.
        for retired in ("repro-campaign-net-v2", "repro-campaign-net-v3"):
            stale_job = {"schema": retired, "scenario": base_dict()}
            with pytest.raises(ConfigurationError, match="schema mismatch"):
                ScenarioJob.from_dict(stale_job)
        job = ScenarioJob.from_dict({"schema": "repro-campaign-v2", "scenario": base_dict()})
        assert job.scenario == scenario


class TestStructuralRejections:
    def test_typoed_scheme_names_the_valid_ones(self):
        # Was a bare KeyError from the constructor and "malformed
        # scenario: KeyError(...)" from the checker.
        raw = base_dict()
        raw["nodes"][0]["scheme"] = "FIFO_TRESHOLD"
        assert_both_reject(raw, "unknown scheme 'FIFO_TRESHOLD'; valid: FIFO_NONE")
        [finding] = audit_raw(raw)
        assert "malformed" not in finding.message

    def test_route_over_missing_link(self):
        raw = base_dict()
        raw["flows"][0]["route"] = ["a", "c"]
        assert_both_reject(raw, "missing link a->c")

    def test_dangling_link_endpoint(self):
        raw = base_dict()
        raw["links"].append({"src": "b", "dst": "ghost", "rate": mbps(48.0)})
        assert_both_reject(raw, "unknown endpoint")

    def test_zero_capacity_link(self):
        raw = base_dict()
        raw["links"][0]["rate"] = 0.0
        assert_both_reject(raw, "rate must be positive")

    def test_churn_with_no_candidate_routes(self):
        raw = base_dict()
        raw["churn"]["routes"] = []
        assert_both_reject(raw, "at least one candidate route")

    def test_churn_route_over_missing_link(self):
        raw = base_dict()
        raw["churn"]["routes"] = [["b", "a"]]
        assert_both_reject(raw, "missing link b->a")

    def test_duplicate_node_names(self):
        raw = base_dict()
        raw["nodes"][1]["name"] = "a"
        assert_both_reject(raw, "duplicate")

    def test_duplicate_links(self):
        raw = base_dict()
        raw["links"].append({"src": "a", "dst": "b", "rate": mbps(48.0)})
        assert_both_reject(raw, "duplicate link a->b")

    def test_route_with_loop(self):
        raw = base_dict()
        raw["flows"][0]["route"] = ["a", "b", "a"]
        assert_both_reject(raw, "loop")

    def test_single_node_route(self):
        raw = base_dict()
        raw["flows"][0]["route"] = ["a"]
        assert_both_reject(raw, "at least two nodes")

    def test_forwarding_node_without_scheme(self):
        raw = base_dict()
        raw["nodes"][0]["scheme"] = None
        assert_both_reject(raw, "no scheme/buffer")

    def test_duplicate_flow_ids(self):
        raw = base_dict()
        raw["flows"].append(copy.deepcopy(raw["flows"][0]))
        assert_both_reject(raw, "duplicate flow ids")

    def test_negative_sim_time(self):
        assert_both_reject(mutate(sim_time=-1.0), "sim_time must be positive")


NON_FINITE = [float("nan"), float("inf")]


def set_path(raw, path, value):
    """``raw`` with the item at ``path`` (a key/index sequence) set to ``value``."""
    target = raw
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return raw


class TestNonFiniteNumbers:
    """NaN and infinity are refused where a scenario is described.

    Each of these used to construct: a NaN fails ``x <= 0``, and an
    infinite rate or size passed every check until the run (or a
    digest) tripped over it.  Negative infinity is listed only where no
    positivity check already refused it.
    """

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "path, fragment",
        [
            (("peak_rate",), "peak rate must be positive and finite"),
            (("bucket",), "bucket must be positive and finite"),
            (("token_rate",), "token rate must be positive and finite"),
            (("mean_burst",), "mean burst must be positive and finite"),
        ],
    )
    def test_flow_spec(self, path, fragment, value):
        raw = set_path(base_dict(), ("flows", 0, "spec", *path), value)
        assert_both_reject(raw, fragment)
        raw = set_path(base_dict(), ("churn", "templates", 0, *path), value)
        assert_both_reject(raw, fragment)

    @pytest.mark.parametrize(
        "field, value, fragment",
        [
            ("buffer_size", float("nan"), "buffer size must be positive and finite"),
            ("buffer_size", float("inf"), "buffer size must be positive and finite"),
            ("headroom", float("nan"), "headroom must be finite"),
            ("headroom", float("inf"), "headroom must be finite"),
            ("headroom", float("-inf"), "headroom must be finite"),
        ],
    )
    def test_node_spec(self, field, value, fragment):
        assert_both_reject(set_path(base_dict(), ("nodes", 0, field), value), fragment)

    def test_single_node_buffer(self):
        # Was clean under check_scenario, then "buffer capacity must be
        # positive, got nan" from run_fabric.
        with pytest.raises(ConfigurationError, match="buffer size must be positive"):
            NetworkScenario.single_node(
                [NetworkScenario.from_dict(base_dict()).flows[0].spec],
                Scheme.FIFO_THRESHOLD,
                float("nan"),
            )

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_link_spec(self, value):
        # An infinite link rate used to run (15,717 events on a port).
        raw = set_path(base_dict(), ("links", 0, "rate"), value)
        assert_both_reject(raw, "rate must be positive and finite")

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "field, fragment",
        [
            ("arrival_rate", "arrival rate must be positive and finite"),
            ("mean_holding", "mean holding time must be positive and finite"),
        ],
    )
    def test_churn_spec(self, field, fragment, value):
        assert_both_reject(set_path(base_dict(), ("churn", field), value), fragment)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "field, fragment",
        [
            ("sim_time", "sim_time must be positive and finite"),
            ("packet_size", "packet_size must be positive and finite"),
        ],
    )
    def test_network_scenario(self, field, fragment, value):
        # No warmup: a NaN sim_time used to fail only `warmup < sim_time`.
        assert_both_reject(mutate(warmup=None, **{field: value}), fragment)


class TestMalformedData:
    def test_missing_required_key_is_rpr203(self):
        raw = base_dict()
        del raw["nodes"]
        findings = audit_raw(raw)
        assert [finding.rule_id for finding in findings] == ["RPR203"]
        assert "malformed entry" in findings[0].message

    def test_non_dict_payload_is_rpr203(self):
        findings = audit_raw([1, 2, 3])
        assert [finding.rule_id for finding in findings] == ["RPR203"]


class TestPacketMustFit:
    """A flow whose source or shaper cannot carry one packet is refused up front.

    Both used to audit clean and construct: the source refused a mean
    burst below one packet only when the run started it, and the shaper
    raised ``SimulationError`` at the first packet its bucket could not hold.
    """

    @pytest.mark.parametrize(
        "path, value, fragment",
        [
            (("flows", 0, "spec", "bucket"), 999.0, "flow 0: mean burst 50000.0 or bucket 999.0 under 1000.0 B"),
            (("flows", 0, "spec", "mean_burst"), 999.0, "flow 0: mean burst 999.0 or"),
            (("churn", "templates", 0, "bucket"), 999.0, "churn template 0: mean burst 50000.0 or bucket 999.0"),
            (("churn", "templates", 0, "mean_burst"), 500.0, "churn template 0: mean burst 500.0"),
        ],
    )
    def test_refused_by_both_gates(self, path, value, fragment):
        assert_both_reject(set_path(base_dict(), path, value), fragment)

    def test_unshaped_flow_may_reserve_less_than_a_packet(self):
        raw = set_path(base_dict(), ("flows", 0, "spec", "conformant"), False)
        raw = set_path(raw, ("flows", 0, "spec", "bucket"), 400.0)
        assert NetworkScenario.from_dict(raw).flows[0].spec.bucket == 400.0
        assert audit_raw(raw) == []

    def test_a_one_hop_tandem_with_a_small_bucket_fails_before_it_runs(self):
        scenario = demo_tandem(hops=1, sim_time=2.0)
        flows = list(scenario.flows)
        flows[0] = dataclasses.replace(
            flows[0], spec=dataclasses.replace(flows[0].spec, bucket=400.0)
        )
        assert flows[0].spec.conformant and scenario.packet_size == 500.0
        with pytest.raises(ConfigurationError, match="flow 0: .* bucket 400.0"):
            dataclasses.replace(scenario, flows=tuple(flows))
