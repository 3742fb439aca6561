"""End-to-end validation of the paper's core guarantees.

These tests build small networks (sources -> port) and check the
Proposition 1/2 statements inside the packet-level simulator: a conformant
flow whose threshold follows the paper's formula does not lose packets,
no matter how aggressive the competition.  Packetisation introduces a
one-packet slack relative to the fluid analysis, so thresholds get one
extra packet of margin where noted.
"""

import pytest

from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.tail_drop import TailDropManager
from repro.core.thresholds import flow_threshold
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import CBRSource, GreedySource, OnOffSource

LINK = 1_000_000.0  # 1 MB/s for round numbers
PKT = 500.0


def build_port(manager, warmup=0.0):
    sim = Simulator()
    collector = StatsCollector(warmup=warmup)
    port = OutputPort(sim, LINK, FIFOScheduler(), manager, collector)
    return sim, port, collector


class TestProposition1:
    """Peak-rate flows: threshold B * rho / R suffices."""

    def test_cbr_flow_lossless_against_greedy(self):
        buffer_size = 100_000.0
        rho = 250_000.0  # quarter of the link
        threshold = flow_threshold(0.0, rho, buffer_size, LINK) + PKT
        manager = FixedThresholdManager(
            buffer_size, {1: threshold, 2: buffer_size - threshold}
        )
        sim, port, collector = build_port(manager)
        CBRSource(sim, 1, rho, port, packet_size=PKT, until=20.0)
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=20.0)
        sim.run(until=25.0)
        assert collector.flows[1].dropped_packets == 0
        assert collector.flows[1].offered_packets > 1000

    def test_cbr_flow_receives_guaranteed_rate_asymptotically(self):
        buffer_size = 100_000.0
        rho = 250_000.0
        threshold = flow_threshold(0.0, rho, buffer_size, LINK) + PKT
        manager = FixedThresholdManager(buffer_size, {1: threshold, 2: buffer_size - threshold})
        sim, port, collector = build_port(manager, warmup=5.0)
        CBRSource(sim, 1, rho, port, packet_size=PKT, until=30.0)
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=30.0)
        sim.run(until=30.0)
        throughput = collector.flows[1].departed_bytes / 25.0
        assert throughput == pytest.approx(rho, rel=0.02)

    def test_greedy_flow_gets_residual_capacity(self):
        buffer_size = 100_000.0
        rho = 250_000.0
        threshold = flow_threshold(0.0, rho, buffer_size, LINK) + PKT
        manager = FixedThresholdManager(buffer_size, {1: threshold, 2: buffer_size - threshold})
        sim, port, collector = build_port(manager, warmup=5.0)
        CBRSource(sim, 1, rho, port, packet_size=PKT, until=30.0)
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=30.0)
        sim.run(until=30.0)
        residual = collector.flows[2].departed_bytes / 25.0
        assert residual == pytest.approx(LINK - rho, rel=0.02)

    def test_undersized_threshold_loses_packets(self):
        # Necessity (Example 1's converse): give the flow clearly less
        # than B rho / R and it must lose against a greedy competitor.
        buffer_size = 100_000.0
        rho = 250_000.0
        threshold = 0.5 * flow_threshold(0.0, rho, buffer_size, LINK)
        manager = FixedThresholdManager(buffer_size, {1: threshold, 2: buffer_size - threshold})
        sim, port, collector = build_port(manager)
        CBRSource(sim, 1, rho, port, packet_size=PKT, until=20.0)
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=20.0)
        sim.run(until=25.0)
        assert collector.flows[1].dropped_packets > 0

    def test_without_thresholds_greedy_starves_cbr(self):
        manager = TailDropManager(100_000.0)
        sim, port, collector = build_port(manager)
        # Greedy starts first and keeps the buffer full.
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=20.0)
        CBRSource(sim, 1, 250_000.0, port, packet_size=PKT, start=1.0, until=20.0)
        sim.run(until=25.0)
        assert collector.flows[1].dropped_packets > 0


class TestProposition2:
    """Leaky-bucket flows: threshold sigma + B * rho / R suffices."""

    def test_shaped_onoff_flow_lossless_against_greedy(self):
        buffer_size = 200_000.0
        sigma, rho = 20_000.0, 250_000.0
        threshold = flow_threshold(sigma, rho, buffer_size, LINK) + PKT
        manager = FixedThresholdManager(buffer_size, {1: threshold, 2: buffer_size - threshold})
        sim, port, collector = build_port(manager)
        shaper = LeakyBucketShaper(sim, sigma, rho, port)
        OnOffSource(
            sim, 1, peak_rate=800_000.0, avg_rate=250_000.0, mean_burst=20_000.0,
            sink=shaper, rng=Generator(SeedSequence(5)), packet_size=PKT, until=20.0,
        )
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=20.0)
        sim.run(until=25.0)
        assert collector.flows[1].dropped_packets == 0
        assert collector.flows[1].offered_packets > 100

    def test_burst_after_idle_fits_in_sigma_term(self):
        # Worst case of the Prop-2 note: the flow first trickles at rho
        # (filling its B rho / R share) and then dumps a full sigma burst.
        buffer_size = 200_000.0
        sigma, rho = 20_000.0, 250_000.0
        threshold = flow_threshold(sigma, rho, buffer_size, LINK) + PKT
        manager = FixedThresholdManager(buffer_size, {1: threshold, 2: buffer_size - threshold})
        sim, port, collector = build_port(manager)
        CBRSource(sim, 1, rho, port, packet_size=PKT, until=15.0)
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=20.0)
        # Dump sigma bytes instantaneously at t = 15 (conformant: the
        # bucket is full because the flow never used its burst credit).
        def dump():
            from repro.sim.packet import Packet
            for _ in range(int(sigma / PKT)):
                port.receive(Packet(1, PKT, sim.now))
        sim.schedule_at(15.0, dump)
        sim.run(until=25.0)
        assert collector.flows[1].dropped_packets == 0

    def test_occupancy_never_exceeds_threshold(self):
        buffer_size = 200_000.0
        sigma, rho = 20_000.0, 250_000.0
        threshold = flow_threshold(sigma, rho, buffer_size, LINK) + PKT
        manager = FixedThresholdManager(buffer_size, {1: threshold, 2: buffer_size - threshold})
        sim, port, _ = build_port(manager)
        shaper = LeakyBucketShaper(sim, sigma, rho, port)
        OnOffSource(
            sim, 1, 800_000.0, 250_000.0, 20_000.0, shaper,
            Generator(SeedSequence(9)), packet_size=PKT, until=10.0,
        )
        GreedySource(sim, 2, LINK, port, packet_size=PKT, until=10.0)
        peak = 0.0

        def sample():
            nonlocal peak
            peak = max(peak, manager.occupancy(1))
            if sim.now < 10.0:
                sim.schedule(0.01, sample)

        sim.schedule_at(0.0, sample)
        sim.run(until=12.0)
        assert peak <= threshold + 1e-6


class TestIsolationBetweenManyFlows:
    def test_multiple_conformant_flows_all_protected(self):
        # Three CBR flows with proportional thresholds + one greedy flow.
        buffer_size = 150_000.0
        rates = {1: 100_000.0, 2: 200_000.0, 3: 300_000.0}
        thresholds = {
            flow_id: flow_threshold(0.0, rho, buffer_size, LINK) + PKT
            for flow_id, rho in rates.items()
        }
        thresholds[9] = buffer_size - sum(thresholds.values())
        manager = FixedThresholdManager(buffer_size, thresholds)
        sim, port, collector = build_port(manager, warmup=5.0)
        for flow_id, rho in rates.items():
            CBRSource(sim, flow_id, rho, port, packet_size=PKT, until=30.0)
        GreedySource(sim, 9, LINK, port, packet_size=PKT, until=30.0)
        sim.run(until=30.0)
        for flow_id, rho in rates.items():
            assert collector.flows[flow_id].dropped_packets == 0, flow_id
            throughput = collector.flows[flow_id].departed_bytes / 25.0
            assert throughput == pytest.approx(rho, rel=0.03)
