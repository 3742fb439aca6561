"""Tandem networks: end-to-end guarantees across multiple hops."""

import pytest

from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.tail_drop import TailDropManager
from repro.core.thresholds import flow_threshold
from repro.errors import ConfigurationError
from repro.metrics.collector import StatsCollector
from repro.net.tandem import build_tandem
from repro.net.topology import per_hop_sigma
from repro.sim.engine import Simulator
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import CBRSource, GreedySource, OnOffSource

LINK = 1_000_000.0
PKT = 500.0
HOP_BUFFER = 60_000.0


class TestBuildTandem:
    def test_node_and_link_count(self):
        sim = Simulator()
        net, names = build_tandem(
            sim,
            [LINK] * 3,
            [lambda: TailDropManager(HOP_BUFFER)] * 3,
            [StatsCollector() for _ in range(3)],
        )
        assert names == ["n0", "n1", "n2", "n3"]
        assert len(net.links) == 3

    def test_mismatched_managers_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tandem(Simulator(), [LINK], [], [StatsCollector()])
        with pytest.raises(ConfigurationError, match="collectors"):
            build_tandem(Simulator(), [LINK], [lambda: TailDropManager(HOP_BUFFER)], [])

    def test_empty_tandem_rejected(self):
        with pytest.raises(ConfigurationError):
            build_tandem(Simulator(), [], [], [])


class TestTandemWarmup:
    """Hop collectors passed in are the hops' collectors, warmup and all."""

    def test_explicit_collectors_keep_their_own_warmup(self):
        sim = Simulator()
        collector = StatsCollector(warmup=2.0)
        net, names = build_tandem(
            sim,
            [LINK],
            [lambda: TailDropManager(HOP_BUFFER)],
            collectors=[collector],
        )
        net.set_route(1, names)
        CBRSource(sim, 1, 100_000.0, net.entry(1), packet_size=PKT, until=10.0)
        sim.run(until=12.0)
        assert net.links[("n0", "n1")].collector is collector
        assert collector.flows[1].offered_packets == pytest.approx(1600, abs=2)


class TestEndToEndGuarantee:
    def build(self, with_thresholds, hops=3):
        """Tandem where independent greedy cross-traffic hits each hop."""
        sim = Simulator()
        rho = 250_000.0
        sigma = 10_000.0
        hop_delay = HOP_BUFFER / LINK
        sigmas = per_hop_sigma(sigma, rho, [hop_delay] * hops)
        collectors = [StatsCollector() for _ in range(hops)]

        def manager_factory_for(hop):
            def factory():
                if not with_thresholds:
                    return TailDropManager(HOP_BUFFER)
                threshold = flow_threshold(
                    sigmas[hop], rho, HOP_BUFFER, LINK
                ) + PKT
                cross_id = 100 + hop
                return FixedThresholdManager(
                    HOP_BUFFER, {1: threshold, cross_id: HOP_BUFFER - threshold}
                )
            return factory

        net, names = build_tandem(
            sim, [LINK] * hops,
            [manager_factory_for(hop) for hop in range(hops)],
            collectors=collectors,
        )
        # Route for the flow of interest: full path.
        net.set_route(1, names)
        # Cross traffic: enters at hop i, leaves at the next node.
        for hop in range(hops):
            cross_id = 100 + hop
            net.set_route(cross_id, [names[hop], names[hop + 1]])
            GreedySource(sim, cross_id, LINK, net.entry(cross_id),
                         packet_size=PKT, until=20.0)
        shaper = LeakyBucketShaper(sim, sigma, rho, net.entry(1))
        OnOffSource(
            sim, 1, peak_rate=800_000.0, avg_rate=rho, mean_burst=sigma,
            sink=shaper, rng=Generator(SeedSequence(17)), packet_size=PKT,
            until=20.0,
        )
        sim.run(until=25.0)
        total_drops = sum(
            collector.flows[1].dropped_packets
            for collector in collectors
            if 1 in collector.flows
        )
        delivered = net.sink.flows[1].departed_bytes if 1 in net.sink.flows else 0.0
        return total_drops, delivered, net, collectors

    def test_thresholds_protect_across_every_hop(self):
        drops, delivered, _, _ = self.build(with_thresholds=True)
        assert drops == 0
        assert delivered > 0

    def test_no_management_loses_somewhere(self):
        drops, _, _, _ = self.build(with_thresholds=False)
        assert drops > 0

    def test_end_to_end_rate_close_to_reservation(self):
        _, delivered, _, _ = self.build(with_thresholds=True)
        # 20 s of source activity at 250 kB/s average.
        assert delivered / 20.0 == pytest.approx(250_000.0, rel=0.25)

    def test_per_hop_delay_bounded_by_buffer_over_rate(self):
        # Network queueing obeys the per-hop B/R bound at every hop (the
        # end-to-end sink delay additionally includes the access shaper's
        # hold time, which is unbounded for an avg-rate-equals-rho flow).
        _, _, _, collectors = self.build(with_thresholds=True)
        hop_bound = HOP_BUFFER / LINK + PKT / LINK
        for collector in collectors:
            if 1 in collector.flows:
                assert collector.flows[1].delay_max <= hop_bound + 1e-9
