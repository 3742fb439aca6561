"""Adversarial sources: Example 1's greedy flow and the Prop-2 adversary."""

import pytest

from repro.analysis.fluid import fluid_limits
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.thresholds import flow_threshold
from repro.errors import ConfigurationError
from repro.metrics.collector import StatsCollector
from repro.obs.timeline import Timeline
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.traffic.adversarial import FillThenBurstSource, ThresholdFillingSource
from repro.traffic.shaper import TokenBucketMeter
from repro.traffic.sources import CBRSource

LINK = 1_000_000.0
PKT = 500.0


def build_port(manager, warmup=0.0):
    sim = Simulator()
    collector = StatsCollector(warmup=warmup)
    port = OutputPort(sim, LINK, FIFOScheduler(), manager, collector)
    return sim, port, collector


class TestThresholdFillingSource:
    def test_occupancy_pinned_near_target(self):
        buffer_size = 50_000.0
        target = 30_000.0
        manager = FixedThresholdManager(buffer_size, {2: target})
        sim, port, _ = build_port(manager)
        ThresholdFillingSource(sim, 2, port, target, packet_size=PKT, until=5.0)
        timeline = Timeline(0.01)
        timeline.probe("occ", lambda: manager.occupancy(2))
        timeline.install(sim, until=5.0)
        sim.run(until=5.0)
        # After the initial fill the occupancy stays within one packet of
        # the target.
        steady = timeline.series("occ").values()[10:]
        assert min(steady) >= target - 2 * PKT
        assert max(steady) <= target + 1e-9

    def test_example1_rates_reproduced(self):
        # Greedy flow pinned at B2, CBR flow at rho1 with threshold B1:
        # long-run rates must approach the fluid limits (rho1, R - rho1).
        buffer_size = 50_000.0
        rho1 = 250_000.0
        threshold1 = flow_threshold(0.0, rho1, buffer_size, LINK) + PKT
        b2 = buffer_size - threshold1
        manager = FixedThresholdManager(buffer_size, {1: threshold1, 2: b2})
        sim, port, collector = build_port(manager, warmup=10.0)
        CBRSource(sim, 1, rho1, port, packet_size=PKT, until=40.0)
        ThresholdFillingSource(sim, 2, port, b2, packet_size=PKT, until=40.0)
        sim.run(until=40.0)
        _l_inf, rate1_inf, rate2_inf = fluid_limits(rho1, buffer_size, LINK)
        measured1 = collector.flows[1].departed_bytes / 30.0
        measured2 = collector.flows[2].departed_bytes / 30.0
        assert measured1 == pytest.approx(rate1_inf, rel=0.03)
        assert measured2 == pytest.approx(rate2_inf, rel=0.03)
        assert collector.flows[1].dropped_packets == 0

    def test_validation(self):
        sim, port, _ = build_port(FixedThresholdManager(1000.0, {0: 500.0}))
        with pytest.raises(ConfigurationError):
            ThresholdFillingSource(sim, 0, port, 0.0)


class TestFillThenBurstSource:
    def test_emitted_stream_is_conformant(self):
        sigma, rho = 20_000.0, 200_000.0

        class MeterSink:
            def __init__(self, clock):
                self.clock = clock
                self.meter = TokenBucketMeter(sigma, rho)
                self.violations = 0

            def receive(self, packet):
                if not self.meter.observe(self.clock(), packet.size):
                    self.violations += 1

        sim = Simulator()
        sink = MeterSink(lambda: sim.now)
        FillThenBurstSource(sim, 1, sigma, rho, sink, burst_at=3.0, until=6.0)
        sim.run(until=6.0)
        assert sink.violations == 0

    def test_burst_fires_once(self):
        sim = Simulator()

        class Counter:
            def __init__(self):
                self.count = 0

            def receive(self, packet):
                self.count += 1

        sink = Counter()
        source = FillThenBurstSource(
            sim, 1, 10_000.0, 100_000.0, sink, burst_at=1.0, until=2.0
        )
        sim.run(until=2.0)
        assert source.burst_fired
        # CBR packets (200/s for 2 s) plus the 19-packet burst.
        burst_packets = int((10_000.0 - PKT) // PKT)
        assert sink.count >= burst_packets

    def test_attains_proposition2_threshold(self):
        # The adversary drives its occupancy to ~sigma + rho B / R, the
        # Prop-2 bound, without ever violating its envelope.
        buffer_size = 100_000.0
        sigma, rho = 20_000.0, 250_000.0
        threshold = flow_threshold(sigma, rho, buffer_size, LINK) + PKT
        manager = FixedThresholdManager(
            buffer_size, {1: threshold, 9: buffer_size - threshold}
        )
        sim, port, collector = build_port(manager)
        # Cross traffic keeps the queue drained slowly.
        ThresholdFillingSource(
            sim, 9, port, buffer_size - threshold, packet_size=PKT, until=20.0
        )
        FillThenBurstSource(sim, 1, sigma, rho, port, burst_at=15.0, until=20.0)
        peak = [0.0]

        def sample():
            peak[0] = max(peak[0], manager.occupancy(1))
            if sim.now < 20.0:
                sim.schedule(0.005, sample)

        sim.schedule_at(0.0, sample)
        sim.run(until=20.0)
        # The flow is conformant, so the Prop-2 threshold protects it.
        assert collector.flows[1].dropped_packets == 0
        # And the burst actually pushed it close to the bound (> sigma).
        assert peak[0] > sigma
