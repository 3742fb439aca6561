"""Scenario fabric: dispatch, path equivalence, multi-hop guarantees."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fabric import (
    DYNAMIC_FLOW_BASE,
    LinkSpec,
    NetworkScenario,
    NodeSpec,
    RoutedFlow,
    run_fabric,
)
from repro.experiments.fabric.build import _run_network
from repro.experiments.fabric.demo import TARGET_FLOW_ID, demo_tandem
from repro.experiments.schemes import Scheme
from repro.obs import RingSink
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes

LINK = mbps(48.0)
BUF = mbytes(1.0)


def conformant(flow_id):
    return FlowSpec(
        flow_id=flow_id,
        peak_rate=mbps(8.0),
        avg_rate=mbps(2.0),
        bucket=kbytes(50.0),
        token_rate=mbps(2.0),
        conformant=True,
        mean_burst=kbytes(50.0),
    )


def hostile(flow_id):
    return FlowSpec(
        flow_id=flow_id,
        peak_rate=mbps(24.0),
        avg_rate=mbps(6.0),
        bucket=kbytes(50.0),
        token_rate=mbps(4.0),
        conformant=False,
        mean_burst=kbytes(250.0),
    )


def single_node_scenario(seed=7, sim_time=4.0):
    return NetworkScenario.single_node(
        [conformant(1), hostile(2)],
        Scheme.FIFO_THRESHOLD,
        BUF,
        link_rate=LINK,
        sim_time=sim_time,
        seed=seed,
    )


def two_hop_scenario(seed=3, sim_time=4.0):
    """Target flow crosses both hops; one hostile lane congests each."""
    return NetworkScenario(
        nodes=(
            NodeSpec("n0", Scheme.FIFO_THRESHOLD, BUF),
            NodeSpec("n1", Scheme.FIFO_THRESHOLD, BUF),
            NodeSpec("n2"),
        ),
        links=(LinkSpec("n0", "n1", LINK), LinkSpec("n1", "n2", LINK)),
        flows=(
            RoutedFlow(spec=conformant(1), route=("n0", "n1", "n2")),
            RoutedFlow(spec=hostile(100), route=("n0", "n1")),
            RoutedFlow(spec=hostile(101), route=("n1", "n2")),
        ),
        sim_time=sim_time,
        seed=seed,
    )


class TestDispatch:
    def test_single_node_takes_fast_path(self):
        scenario = single_node_scenario()
        assert scenario.is_single_port
        result = run_fabric(scenario)
        # The fast path is the historical runner: it produces the classic
        # ScenarioResult and never builds a topology/delivery sink.
        assert result.scenario_result is not None
        assert result.delivery is None

    def test_multi_hop_takes_network_path(self):
        scenario = two_hop_scenario()
        assert not scenario.is_single_port
        result = run_fabric(scenario)
        assert result.scenario_result is None
        assert result.delivery is not None

    def test_churn_forces_network_path(self):
        assert not demo_tandem(hops=1).is_single_port

    def test_link_lookup(self):
        result = run_fabric(two_hop_scenario(sim_time=1.0))
        assert result.link("n0", "n1").label == "n0->n1"
        with pytest.raises(ConfigurationError):
            result.link("n0", "n2")


class TestPathEquivalence:
    """The fast path and the general path measure the same physics."""

    def test_single_node_counters_match_across_paths(self):
        scenario = single_node_scenario()
        fast = run_fabric(scenario)
        general = _run_network(scenario)
        fast_stats = fast.links["n0->n1"].flow_stats
        general_stats = general.links["n0->n1"].flow_stats
        assert set(fast_stats) == set(general_stats)
        for flow_id in fast_stats:
            a, b = fast_stats[flow_id], general_stats[flow_id]
            assert a.offered_packets == b.offered_packets
            assert a.offered_bytes == b.offered_bytes
            assert a.dropped_packets == b.dropped_packets
            assert a.departed_packets == b.departed_packets
            assert a.departed_bytes == b.departed_bytes

    def test_single_node_thresholds_match_across_paths(self):
        # One hop means no burst inflation: the general path must size
        # the same thresholds the classic pipeline did.
        scenario = single_node_scenario()
        fast = run_fabric(scenario)
        general = _run_network(scenario)
        assert fast.links["n0->n1"].thresholds == general.links["n0->n1"].thresholds


class TestPacketHandoff:
    """Packets cross hops as the same objects, none lost in between."""

    def test_second_hop_sees_exactly_what_first_hop_forwarded(self):
        result = run_fabric(two_hop_scenario())
        first = result.links["n0->n1"].flow_stats[1]
        second = result.links["n1->n2"].flow_stats[1]
        assert second.offered_packets == first.departed_packets


class TestEndToEndProtection:
    """Satellite: per-hop sigma inflation keeps the target flow lossless."""

    def test_conformant_flow_crosses_three_protected_hops_without_loss(self):
        # Churn on: the link load includes the dynamic population, which
        # is what makes the zero-drop guarantee non-trivial below.
        result = run_fabric(demo_tandem(hops=3, churn=True))
        for link in result.links.values():
            stats = link.flow_stats.get(TARGET_FLOW_ID)
            assert stats is not None, f"target flow missing at {link.label}"
            assert stats.dropped_packets == 0, f"target flow dropped at {link.label}"
        # The guarantee is non-trivial: other traffic loses somewhere.
        cross_drops = sum(
            stats.dropped_packets
            for link in result.links.values()
            for flow_id, stats in link.flow_stats.items()
            if flow_id != TARGET_FLOW_ID
        )
        assert cross_drops > 0
        assert result.delivery.packets[TARGET_FLOW_ID] > 0


class TestScenarioValidation:
    def test_bad_sim_time_rejected(self):
        with pytest.raises(ConfigurationError):
            single_node_scenario(sim_time=0.0)

    def test_warmup_beyond_sim_time_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkScenario.single_node(
                [conformant(1)], Scheme.FIFO_NONE, BUF, sim_time=2.0, warmup=2.0
            )

    def test_unknown_link_endpoint_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown endpoint"):
            NetworkScenario(
                nodes=(NodeSpec("n0", Scheme.FIFO_NONE, BUF),),
                links=(LinkSpec("n0", "ghost", LINK),),
                flows=(RoutedFlow(spec=conformant(1), route=("n0", "ghost")),),
            )

    def test_duplicate_node_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate node"):
            NetworkScenario(
                nodes=(NodeSpec("n0", Scheme.FIFO_NONE, BUF), NodeSpec("n0")),
                links=(LinkSpec("n0", "n0", LINK),),
                flows=(RoutedFlow(spec=conformant(1), route=("n0", "n1")),),
            )

    def test_route_over_missing_link_rejected(self):
        with pytest.raises(ConfigurationError, match="missing link"):
            NetworkScenario(
                nodes=(
                    NodeSpec("n0", Scheme.FIFO_NONE, BUF),
                    NodeSpec("n1", Scheme.FIFO_NONE, BUF),
                    NodeSpec("n2"),
                ),
                links=(LinkSpec("n0", "n1", LINK), LinkSpec("n1", "n2", LINK)),
                flows=(RoutedFlow(spec=conformant(1), route=("n0", "n2")),),
            )

    def test_static_flow_in_dynamic_id_range_rejected(self):
        with pytest.raises(ConfigurationError, match="dynamic"):
            RoutedFlow(spec=conformant(DYNAMIC_FLOW_BASE), route=("n0", "n1"))

    def test_scenario_without_flows_or_churn_rejected(self):
        with pytest.raises(ConfigurationError, match="flows or churn"):
            NetworkScenario(
                nodes=(NodeSpec("n0", Scheme.FIFO_NONE, BUF), NodeSpec("n1")),
                links=(LinkSpec("n0", "n1", LINK),),
                flows=(),
            )

    def test_source_node_without_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="no scheme/buffer"):
            NetworkScenario(
                nodes=(NodeSpec("n0"), NodeSpec("n1")),
                links=(LinkSpec("n0", "n1", LINK),),
                flows=(RoutedFlow(spec=conformant(1), route=("n0", "n1")),),
            )


class TestSerialization:
    def test_round_trip_with_churn(self):
        scenario = demo_tandem(hops=3, seed=9)
        assert scenario.churn is not None
        assert NetworkScenario.from_dict(scenario.to_dict()) == scenario

    def test_round_trip_survives_json(self):
        scenario = two_hop_scenario(seed=21)
        raw = json.loads(json.dumps(scenario.to_dict()))
        assert NetworkScenario.from_dict(raw) == scenario


class TestTraceNodeLabels:
    """Satellite: network trace events are attributable to their hop."""

    def test_network_events_carry_link_labels(self):
        sink = RingSink()
        run_fabric(two_hop_scenario(sim_time=1.0), sink=sink)
        labelled = {
            event.node for event in sink.events() if hasattr(event, "node")
        }
        assert labelled == {"n0->n1", "n1->n2"}

    def test_single_port_events_have_empty_node(self):
        sink = RingSink()
        run_fabric(single_node_scenario(sim_time=1.0), sink=sink)
        packet_events = [
            event for event in sink.events() if hasattr(event, "node")
        ]
        assert packet_events
        assert all(event.node == "" for event in packet_events)
