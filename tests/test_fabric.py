"""Scenario fabric: one pipeline for every shape, multi-hop guarantees."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign.record import ScenarioRecord
from repro.experiments.fabric import (
    DYNAMIC_FLOW_BASE,
    LinkSpec,
    NetworkScenario,
    NodeSpec,
    RoutedFlow,
    run_fabric,
)
from repro.experiments.fabric.demo import TARGET_FLOW_ID, demo_tandem
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import CASE1_GROUPS, table1_flows
from repro.obs import ConformanceMonitor, EnqueueEvent, RingSink, Timeline
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
    """Shape selects values (hop label, delivery sink), never a pipeline."""

    def test_churn_forces_network_path(self):
        # Churn flows need end-to-end accounting and per-hop labels even
        # over a single link.
        scenario = demo_tandem(hops=1, sim_time=0.5)
        assert not scenario.is_single_port
        sink = RingSink()
        result = run_fabric(scenario, sink=sink)
        assert result.delivery is not None
        assert {e.node for e in sink.events() if hasattr(e, "node")} == {"n0->n1"}

    def test_a_kept_result_holds_no_simulator(self):
        result = run_fabric(two_hop_scenario(sim_time=0.5))
        assert result.delivery.packets and result.delivery.sim is None

    def test_link_lookup(self):
        result = run_fabric(two_hop_scenario(sim_time=1.0))
        assert result.link("n0", "n1").label == "n0->n1"
        with pytest.raises(ConfigurationError):
            result.link("n0", "n2")


def table1_port(scheme, **kwargs):
    """``run_scenario`` arguments for Table 1 on a 1 MB port."""
    return (table1_flows(), scheme, BUF), dict(
        sim_time=1.0,
        warmup=0.0,
        seed=5,
        headroom=mbytes(0.5),
        groups=CASE1_GROUPS if scheme.is_hybrid else None,
        delay_histograms=True,
        **kwargs,
    )


def with_appended_hop(scenario):
    """The one-link scenario followed by an uncongested FIFO_NONE hop."""
    (link,) = scenario.links
    return dataclasses.replace(
        scenario,
        nodes=(
            scenario.node(link.src),
            NodeSpec(link.dst, Scheme.FIFO_NONE, mbytes(8.0)),
            NodeSpec("tail"),
        ),
        links=(link, LinkSpec(link.dst, "tail", link.rate)),
        flows=tuple(
            RoutedFlow(spec=routed.spec, route=(*routed.route, "tail"))
            for routed in scenario.flows
        ),
    )


class TestOnePipeline:
    """A port is the one-link case of the fabric, structurally."""

    @pytest.mark.parametrize(
        "scheme",
        [
            Scheme.FIFO_THRESHOLD,
            Scheme.FIFO_SHARING,
            Scheme.WFQ_THRESHOLD,
            Scheme.HYBRID_SHARING,
        ],
    )
    def test_first_hop_unchanged_by_an_appended_hop(self, scheme):
        # Metamorphic: what happens downstream of a link cannot reach
        # back into it, so the port alone and the first hop of a longer
        # route measure the same thing — exactly, not approximately.
        args, kwargs = table1_port(scheme)
        alone = run_scenario(*args, **kwargs)
        longer = run_fabric(
            with_appended_hop(NetworkScenario.single_node(*args, **kwargs))
        )
        first = longer.links["n0->n1"]
        assert alone.flow_stats == first.flow_stats
        assert alone.thresholds == first.thresholds
        for flow_id in alone.flow_stats:
            assert alone.delay_percentile(flow_id, 99.0) == (
                first.collector.delay_histogram(flow_id).percentile(99.0)
            )

    def test_run_scenario_is_link_zero_of_the_fabric(self):
        args, kwargs = table1_port(Scheme.FIFO_THRESHOLD)
        scenario = NetworkScenario.single_node(*args, **kwargs)
        assert scenario.is_single_port
        classic = run_scenario(*args, **kwargs)
        fabric = run_fabric(scenario)
        (link,) = fabric.links.values()
        assert link.label == "n0->n1"
        assert classic.flow_stats == link.flow_stats
        assert classic.thresholds == link.thresholds
        assert classic.events_processed == fabric.events_processed
        # One link: its statistics already are end to end, and the end-to-end
        # delay is read from the link's own collector.
        assert fabric.delivery is None
        assert fabric.delay_percentile(0, 99.0) == (
            link.collector.delay_histogram(0).percentile(99.0)
        )

    def test_flows_that_never_sent_get_a_zero_entry(self):
        # A 1 ms window: the link itself saw (at most) one of the flows.
        result = run_scenario(
            [conformant(1), conformant(2)], Scheme.FIFO_THRESHOLD, BUF,
            link_rate=LINK, sim_time=1.0, warmup=0.999, seed=2,
        )
        assert len(result.sole_link.collector.flows) < 2
        assert set(result.flow_stats) == {1, 2}

    def test_single_port_series_are_unlabelled(self):
        args, kwargs = table1_port(Scheme.FIFO_THRESHOLD)
        timeline = Timeline(interval=0.1)
        sink = RingSink()
        result = run_scenario(*args, sink=sink, timeline=timeline, **kwargs)
        series = {s.key: s for s in timeline.all_series()}
        assert set(series) == {"occupancy", "free_space", "backlog_packets"}
        assert series["backlog_packets"].stats().minimum >= 0.0
        # Every admitted packet is enqueued once; with no warmup the
        # collector counts each of them as accepted.
        enqueued = sum(isinstance(event, EnqueueEvent) for event in sink.events())
        assert enqueued == sum(
            stats.accepted_packets for stats in result.flow_stats.values()
        )

    def test_network_series_label_each_link(self):
        timeline = Timeline(interval=0.1)
        run_fabric(two_hop_scenario(sim_time=1.0), timeline=timeline)
        assert {s.key for s in timeline.all_series()} == {
            f"{link}/{name}"
            for link in ("n0->n1", "n1->n2")
            for name in ("occupancy", "free_space")
        }


class TestPacketHandoff:
    """Packets cross hops as the same objects, none lost in between."""

    def test_second_hop_sees_exactly_what_first_hop_forwarded(self):
        result = run_fabric(two_hop_scenario())
        first = result.links["n0->n1"].flow_stats[1]
        second = result.links["n1->n2"].flow_stats[1]
        assert second.offered_packets == first.departed_packets


class TestAttachedEqualsDetached:
    """Observing the reference tandem moves no byte of its record."""

    @pytest.mark.parametrize("reclamation", [False, True], ids=["static", "reclaim"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_hook_attached_leaves_the_record_unchanged(self, seed, reclamation):
        scenario = demo_tandem(hops=3, seed=seed, sim_time=2.0, reclamation=reclamation)
        detached = ScenarioRecord.from_result(run_fabric(scenario), "digest").to_dict()
        timeline = Timeline(0.01)
        result = run_fabric(
            scenario, sink=RingSink(), timeline=timeline, monitor=ConformanceMonitor()
        )
        assert result.monitor_report.ok
        attached = ScenarioRecord.from_result(result, "digest").to_dict()
        # The timeline's and the monitor's ticks are engine events of
        # their own; nothing else may differ.
        ticks = timeline.ticks + result.monitor_report.sweeps
        assert attached["events_processed"] == detached["events_processed"] + ticks
        attached["events_processed"] -= ticks
        assert json.dumps(attached) == json.dumps(detached)
        assert detached["delivery_packets"]


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

    # A seed the random streams cannot take used to pass construction,
    # digesting and pre-flight and fail inside the run (None drew an
    # OS-entropy root: a run that never repeats).
    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
            single_node_scenario(seed=seed)

    def test_from_dict_refuses_a_fractional_seed(self):
        raw = demo_tandem(hops=2, seed=2).to_dict()
        raw["seed"] = 2.5  # used to load silently as seed 2
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            NetworkScenario.from_dict(raw)
        raw["seed"] = 2
        assert NetworkScenario.from_dict(raw) == demo_tandem(hops=2, seed=2)


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
