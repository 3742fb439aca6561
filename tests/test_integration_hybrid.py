"""End-to-end behaviour of the hybrid architecture (Section 4)."""

import pytest

from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.hybrid import HybridBufferManager
from repro.metrics.collector import StatsCollector
from repro.sched.hybrid import HybridScheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.traffic.sources import CBRSource, GreedySource

LINK = 1_000_000.0
PKT = 500.0


class TestClassRateGuarantees:
    def test_saturated_classes_split_by_assigned_rates(self):
        # Two classes, rates 3:1, both saturated by greedy flows: served
        # bytes track the class rates.
        sim = Simulator()
        scheduler = HybridScheduler(sim, LINK, [[1], [2]], [750_000.0, 250_000.0])
        manager = HybridBufferManager(
            {1: 0, 2: 1},
            [FixedThresholdManager(30_000.0, {1: 30_000.0}),
             FixedThresholdManager(30_000.0, {2: 30_000.0})],
        )
        collector = StatsCollector(warmup=5.0)
        port = OutputPort(sim, LINK, scheduler, manager, collector)
        GreedySource(sim, 1, LINK, port, packet_size=PKT, until=30.0)
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=30.0)
        sim.run(until=30.0)
        rate1 = collector.flows[1].departed_bytes / 25.0
        rate2 = collector.flows[2].departed_bytes / 25.0
        assert rate1 / rate2 == pytest.approx(3.0, rel=0.05)

    def test_idle_class_capacity_redistributed(self):
        # Class 2 idle: class 1 should take (almost) the whole link, not
        # just its assigned rate — the WFQ across classes is work
        # conserving.
        sim = Simulator()
        scheduler = HybridScheduler(sim, LINK, [[1], [2]], [250_000.0, 750_000.0])
        manager = HybridBufferManager(
            {1: 0, 2: 1},
            [FixedThresholdManager(30_000.0, {1: 30_000.0}),
             FixedThresholdManager(30_000.0, {2: 30_000.0})],
        )
        collector = StatsCollector(warmup=5.0)
        port = OutputPort(sim, LINK, scheduler, manager, collector)
        GreedySource(sim, 1, LINK, port, packet_size=PKT, until=30.0)
        sim.run(until=30.0)
        rate1 = collector.flows[1].departed_bytes / 25.0
        assert rate1 == pytest.approx(LINK, rel=0.02)


class TestWithinClassIsolation:
    def test_thresholds_isolate_flows_inside_a_class(self):
        # One class at rate R; inside it a conformant CBR flow and a
        # greedy flow share the class buffer under thresholds.
        sim = Simulator()
        class_buffer = 50_000.0
        rho = 250_000.0
        threshold = rho / LINK * class_buffer + PKT
        scheduler = HybridScheduler(sim, LINK, [[1, 2]], [LINK])
        manager = HybridBufferManager(
            {1: 0, 2: 0},
            [FixedThresholdManager(
                class_buffer, {1: threshold, 2: class_buffer - threshold}
            )],
        )
        collector = StatsCollector(warmup=5.0)
        port = OutputPort(sim, LINK, scheduler, manager, collector)
        CBRSource(sim, 1, rho, port, packet_size=PKT, until=30.0)
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=30.0)
        sim.run(until=30.0)
        assert collector.flows[1].dropped_packets == 0
        rate1 = collector.flows[1].departed_bytes / 25.0
        assert rate1 == pytest.approx(rho, rel=0.03)


class TestEquivalenceLimits:
    def test_one_class_hybrid_behaves_like_fifo(self):
        # A single class containing all flows is exactly a FIFO queue.
        sim = Simulator()
        scheduler = HybridScheduler(sim, LINK, [[1, 2]], [LINK])
        packets = [Packet(1, PKT, 0.0), Packet(2, PKT, 0.0), Packet(1, PKT, 0.0)]
        for packet in packets:
            scheduler.enqueue(packet)
        assert [scheduler.dequeue() for _ in range(3)] == packets

    def test_one_flow_per_class_behaves_like_wfq(self):
        # k == N classes: service order matches a WFQ with the same
        # weights, packet for packet.
        weights = {1: 100.0, 2: 300.0}
        sim_a, sim_b = Simulator(), Simulator()
        hybrid = HybridScheduler(sim_a, LINK, [[1], [2]], [100.0, 300.0])
        wfq = WFQScheduler(sim_b, LINK, weights)
        order_a, order_b = [], []
        for _ in range(6):
            for flow_id in (1, 2):
                hybrid.enqueue(Packet(flow_id, PKT, 0.0))
                wfq.enqueue(Packet(flow_id, PKT, 0.0))
        for _ in range(12):
            order_a.append(hybrid.dequeue().flow_id)
            order_b.append(wfq.dequeue().flow_id)
        assert order_a == order_b
