"""Extension (ours): per-hop buffer management across a tandem path.

Not a paper figure.  The paper provisions a single link; this extension
quantifies what its mechanism needs end-to-end: a 3-hop tandem with
greedy cross-traffic at every hop, comparing tail drop against per-hop
thresholds whose burst terms follow the network-calculus inflation
``sigma + rho * sum(D_upstream)`` (see ``repro.net.per_hop_sigma``).
"""

import pytest

from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.tail_drop import TailDropManager
from repro.core.thresholds import flow_threshold
from repro.experiments.report import format_table
from repro.metrics.collector import StatsCollector
from repro.net.tandem import build_tandem
from repro.net.topology import per_hop_sigma
from repro.sim.engine import Simulator
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import GreedySource, OnOffSource
from repro.units import mbps, to_mbps

LINK = mbps(8.0)
HOP_BUFFER = 60_000.0
RHO = mbps(2.0)
SIGMA = 10_000.0
PKT = 500.0
SIM_TIME = 15.0


def _hop_plan(hops):
    """Per-hop (sigma, buffer) along the path.

    The burst term inflates hop over hop by ``rho * D`` and the hop delay
    ``D = B / R`` depends on the hop's buffer, so buffers are sized
    iteratively: each hop gets at least the base buffer and at least
    twice its inflated requirement ``sigma_h / (1 - rho/R)`` so the
    cross-traffic partition stays positive.
    """
    utilisation = RHO / LINK
    sigma = SIGMA
    plan = []
    for _ in range(hops):
        buffer_size = max(HOP_BUFFER, 2.0 * sigma / (1.0 - utilisation))
        plan.append((sigma, buffer_size))
        sigma += RHO * (buffer_size / LINK)
    return plan


def _run(hops, with_thresholds):
    sim = Simulator()
    plan = _hop_plan(hops)
    collectors = [StatsCollector() for _ in range(hops)]

    def factory_for(hop):
        sigma_h, buffer_h = plan[hop]

        def factory():
            if not with_thresholds:
                return TailDropManager(buffer_h)
            threshold = flow_threshold(sigma_h, RHO, buffer_h, LINK) + PKT
            return FixedThresholdManager(
                buffer_h, {1: threshold, 100 + hop: buffer_h - threshold}
            )
        return factory

    net, names = build_tandem(
        sim, [LINK] * hops, [factory_for(h) for h in range(hops)],
        collectors=collectors,
    )
    net.set_route(1, names)
    for hop in range(hops):
        cross_id = 100 + hop
        net.set_route(cross_id, [names[hop], names[hop + 1]])
        GreedySource(sim, cross_id, LINK, net.entry(cross_id),
                     packet_size=PKT, until=SIM_TIME)
    shaper = LeakyBucketShaper(sim, SIGMA, RHO, net.entry(1))
    OnOffSource(
        sim, 1, peak_rate=mbps(6.0), avg_rate=RHO, mean_burst=SIGMA,
        sink=shaper, rng=Generator(SeedSequence(5)), packet_size=PKT,
        until=SIM_TIME,
    )
    sim.run(until=SIM_TIME + 5.0)
    drops = sum(c.flows[1].dropped_packets for c in collectors if 1 in c.flows)
    sla = net.sink.flows.get(1)
    delivered = to_mbps((0.0 if sla is None else sla.departed_bytes) / SIM_TIME)
    return drops, delivered


def _sweep():
    results = {}
    for hops in (1, 2, 3, 4):
        results[hops] = {
            "tail drop": _run(hops, with_thresholds=False),
            "thresholds": _run(hops, with_thresholds=True),
        }
    return results


def test_extension_multihop(publish):
    results = _sweep()
    rows = []
    for hops, by_policy in results.items():
        drop_td, rate_td = by_policy["tail drop"]
        drop_th, rate_th = by_policy["thresholds"]
        rows.append([
            str(hops), f"{rate_td:.2f}", str(drop_td), f"{rate_th:.2f}",
            str(drop_th),
        ])
    table = format_table(
        ["hops", "tail-drop rate (Mb/s)", "tail-drop drops",
         "threshold rate (Mb/s)", "threshold drops"],
        rows,
    )
    publish(
        "extension_multihop",
        "Extension: a 2 Mb/s SLA across k congested 8 Mb/s hops "
        "(greedy cross-traffic per hop)\n" + table,
    )

    for hops, by_policy in results.items():
        drop_th, rate_th = by_policy["thresholds"]
        # Per-hop thresholds keep the SLA lossless at any path length...
        assert drop_th == 0, hops
        assert rate_th == pytest.approx(to_mbps(RHO), rel=0.25)
    # ... while tail drop loses packets everywhere and collapses once
    # the path crosses more than one congested hop.
    for hops, by_policy in results.items():
        assert by_policy["tail drop"][0] > 0, hops
    assert results[2]["tail drop"][1] < 0.5 * to_mbps(RHO)
