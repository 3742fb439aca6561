"""Multi-node topology: routing, forwarding, delivery accounting."""

from types import SimpleNamespace

import pytest

from repro.core.tail_drop import TailDropManager
from repro.errors import ConfigurationError
from repro.experiments.campaign.record import ScenarioRecord
from repro.metrics.collector import StatsCollector
from repro.net.topology import DeliverySink, Network, per_hop_sigma
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.traffic.sources import CBRSource

RATE = 100_000.0


class ByteCounter:
    """Counts the bytes a source emits on their way to ``sink``."""

    def __init__(self, sink):
        self.sink = sink
        self.bytes = 0.0

    def receive(self, packet):
        self.bytes += packet.size
        return self.sink.receive(packet)


def two_hop_network():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "b", "c"):
        net.add_node(name)
    net.add_link("a", "b", RATE, FIFOScheduler(), TailDropManager(50_000.0))
    net.add_link("b", "c", RATE, FIFOScheduler(), TailDropManager(50_000.0))
    net.set_route(1, ["a", "b", "c"])
    return sim, net


class TestForwarding:
    def test_packet_traverses_both_hops(self):
        sim, net = two_hop_network()
        net.entry(1).receive(Packet(1, 500.0, 0.0))
        sim.run()
        assert net.sink.flows[1].departed_packets == 1
        assert net.sink.flows[1].departed_bytes == 500.0

    def test_end_to_end_delay_sums_hop_delays(self):
        sim, net = two_hop_network()
        net.entry(1).receive(Packet(1, 500.0, 0.0))
        sim.run()
        # Two transmission times, no queueing: 2 * 500/100000.
        assert net.sink.flows[1].mean_delay == pytest.approx(0.01)

    def test_cbr_rate_preserved_through_hops(self):
        sim, net = two_hop_network()
        CBRSource(sim, 1, 20_000.0, net.entry(1), packet_size=500.0, until=10.0)
        sim.run(until=11.0)
        assert net.sink.flows[1].departed_bytes / 10.0 == pytest.approx(20_000.0, rel=0.02)

    def test_flow_ending_mid_network(self):
        sim, net = two_hop_network()
        net.set_route(2, ["a", "b"])  # delivered at b
        net.entry(2).receive(Packet(2, 500.0, 0.0))
        sim.run()
        assert net.sink.flows[2].departed_packets == 1

    def test_congested_first_hop_limits_delivery_rate(self):
        # First hop at half rate: while the source is active, deliveries
        # cannot exceed the bottleneck rate; once it stops, the backlog
        # drains and everything is eventually delivered (conservation).
        sim = Simulator()
        net = Network(sim)
        for name in ("a", "b", "c"):
            net.add_node(name)
        net.add_link("a", "b", RATE / 2, FIFOScheduler(), TailDropManager(1e9))
        net.add_link("b", "c", RATE, FIFOScheduler(), TailDropManager(1e9))
        net.set_route(1, ["a", "b", "c"])
        emitted = ByteCounter(net.entry(1))
        CBRSource(sim, 1, RATE, emitted, packet_size=500.0, until=10.0)
        sim.run(until=10.0)
        assert net.sink.flows[1].departed_bytes <= RATE / 2 * 10.0 + 1000.0
        sim.run()  # drain
        assert net.sink.flows[1].departed_bytes == pytest.approx(emitted.bytes)


class TestSharedLinkContention:
    def build_diamond(self, per_flow_rate):
        # a --\
        #      c --> d     flows 1 (a-c-d) and 2 (b-c-d) merge at c.
        # b --/
        sim = Simulator()
        net = Network(sim)
        for name in ("a", "b", "c", "d"):
            net.add_node(name)
        net.add_link("a", "c", RATE, FIFOScheduler(), TailDropManager(50_000.0))
        net.add_link("b", "c", RATE, FIFOScheduler(), TailDropManager(50_000.0))
        collector = StatsCollector()
        net.add_link("c", "d", RATE, FIFOScheduler(), TailDropManager(20_000.0),
                     collector=collector)
        net.set_route(1, ["a", "c", "d"])
        net.set_route(2, ["b", "c", "d"])
        CBRSource(sim, 1, per_flow_rate, net.entry(1), packet_size=500.0,
                  until=10.0)
        CBRSource(sim, 2, per_flow_rate, net.entry(2), packet_size=500.0,
                  until=10.0)
        sim.run(until=12.0)
        return net, collector

    def test_underloaded_merge_is_lossless(self):
        net, collector = self.build_diamond(per_flow_rate=0.4 * RATE)
        for flow_id in (1, 2):
            assert collector.flows[flow_id].dropped_packets == 0
            assert net.sink.flows[flow_id].departed_packets > 0

    def test_overloaded_merge_drops_at_the_shared_link(self):
        net, collector = self.build_diamond(per_flow_rate=0.7 * RATE)
        total_drops = sum(
            collector.flows[flow_id].dropped_packets for flow_id in (1, 2)
        )
        assert total_drops > 0
        delivered = net.sink.flows[1].departed_bytes + net.sink.flows[2].departed_bytes
        # The shared link caps aggregate delivery near its rate.
        assert delivered <= RATE * 10.0 + 25_000.0


class TestRoutingValidation:
    def test_unknown_flow_at_node_raises(self):
        # Routes resolve at set_route; every node's table, the transit and
        # the delivering node of flow 1 alike, refuses a flow it does not
        # route, naming the node.
        sim, net = two_hop_network()
        for name in ("a", "b", "c"):
            with pytest.raises(ConfigurationError, match=f"node {name}: no route for flow 99"):
                net.nodes[name][99]

    @pytest.mark.parametrize("hop", [("a", "b"), ("b", "c")], ids=["a-b", "b-c"])
    def test_unrouted_flow_raises_at_the_port(self, hop):
        # The port admits and transmits a packet of a flow nobody routed;
        # handing it on is where the missing route shows.
        sim, net = two_hop_network()
        net.links[hop].receive(Packet(99, 500.0, 0.0))
        with pytest.raises(ConfigurationError, match=f"node {hop[1]}: no route for flow 99"):
            sim.run()

    def test_routes_resolve_to_the_egress_port(self):
        # A departure is handed on with one subscript of the port's
        # per-flow table: the next port's receive, the sink's at the end.
        sim, net = two_hop_network()
        first, second = net.links[("a", "b")], net.links[("b", "c")]
        assert first.downstream is net.nodes["b"]
        assert second.downstream is net.nodes["c"]
        assert first.downstream[1] == second.receive
        assert second.downstream[1] == net.sink.receive
        assert net.nodes["a"][1] == first.receive

    def test_route_with_missing_link_rejected(self):
        sim, net = two_hop_network()
        with pytest.raises(ConfigurationError):
            net.set_route(3, ["a", "c"])  # no a->c link

    def test_looping_route_rejected(self):
        sim, net = two_hop_network()
        with pytest.raises(ConfigurationError):
            net.set_route(3, ["a", "b", "a"])

    def test_duplicate_node_rejected(self):
        sim, net = two_hop_network()
        with pytest.raises(ConfigurationError):
            net.add_node("a")

    def test_duplicate_link_rejected(self):
        sim, net = two_hop_network()
        with pytest.raises(ConfigurationError):
            net.add_link("a", "b", RATE, FIFOScheduler(), TailDropManager(1.0))

    def test_entry_requires_route(self):
        sim, net = two_hop_network()
        with pytest.raises(ConfigurationError, match="no route installed for flow 42"):
            net.entry(42)

    def test_entry_is_the_first_hop_port(self):
        # Sources plug straight into the port: the "no route" guard fired
        # above, at wiring time, so no per-packet lookup is left at ingress.
        sim, net = two_hop_network()
        assert net.entry(1) is net.links[("a", "b")]
        net.set_route(2, ["b", "c"])
        assert net.entry(2) is net.links[("b", "c")]

    def test_entry_of_a_one_node_route_is_the_delivery_sink(self):
        sim, net = two_hop_network()
        net.set_route(3, ["c"])
        assert net.entry(3) is net.sink
        net.entry(3).receive(Packet(3, 500.0, 0.0))
        stats = net.sink.flows[3]
        assert stats.departed_packets == 1
        # Delivered the instant it was created: zero delay, which a
        # record keeps no delay maximum for.
        assert stats.delay_sum == 0.0 and stats.delay_max == 0.0
        result = SimpleNamespace(
            scenario=SimpleNamespace(flows=(), sim_time=1.0, seed=0),
            warmup=0.0, events_processed=1, links={}, churn=None, delivery=net.sink.flows,
            end_to_end=StatsCollector(),
        )
        record = ScenarioRecord.from_result(result, "digest")
        assert record.delivery_packets == {3: 1} and record.delivery_bytes == {3: 500.0}
        assert record.delivery_delay_max == {}

    def test_delivery_clock_is_set_by_the_network_only(self):
        with pytest.raises(TypeError):
            DeliverySink(sim=Simulator())
        sim, net = two_hop_network()
        assert net.sink.sim is sim
        assert net.sink == DeliverySink() and "sim" not in repr(net.sink)

    def test_unlabelled_undelivering_link(self):
        # The one-link case of the fabric: its port carries no label and
        # nothing past it counts the packets a second time.
        sim = Simulator()
        net = Network(sim)
        net.add_node("a")
        net.add_node("b")
        port = net.add_link(
            "a", "b", RATE, FIFOScheduler(), TailDropManager(50_000.0),
            label="", deliver=False,
        )
        net.set_route(1, ["a", "b"])
        net.entry(1).receive(Packet(1, 500.0, 0.0))
        sim.run()
        assert port.label == "" and port.transmitted_packets == 1
        assert port.downstream is None
        assert net.sink.flows == {}

    def test_port_lookup(self):
        sim, net = two_hop_network()
        assert net.links[("a", "b")].rate == RATE
        assert ("c", "a") not in net.links


class TestPerHopSigma:
    def test_first_hop_sees_source_sigma(self):
        assert per_hop_sigma(1000.0, 100.0, [0.5, 0.5])[0] == 1000.0

    def test_growth_by_rho_times_delay(self):
        sigmas = per_hop_sigma(1000.0, 100.0, [0.5, 0.25])
        assert sigmas[1] == pytest.approx(1000.0 + 100.0 * 0.5)

    def test_monotone_along_path(self):
        sigmas = per_hop_sigma(1000.0, 200.0, [0.1, 0.2, 0.3, 0.4])
        assert sigmas == sorted(sigmas)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            per_hop_sigma(-1.0, 100.0, [0.1])
        with pytest.raises(ConfigurationError):
            per_hop_sigma(100.0, 100.0, [-0.1])
