"""Canonical multi-hop demo scenario.

One reference tandem used by the CLI (``repro net demo``), the
benchmark's ``tandem-observed`` workload, the ``tandem-churn`` and
``tandem-observed`` rows of the call budget, the pinned JSONL trace and
the tests: a conformant target flow crossing every
hop of a FIFO+thresholds tandem, independent cross-traffic congesting
each hop locally, and (optionally) a churning population of dynamic
flows admission-tested over the full route.

The numbers follow the paper's single-port experiments: 48 Mbit/s
links, 1 MByte buffers per hop, (50 KByte, 2 Mbit/s) reservations for
the flows of interest.  The static population books well under half of
each hop's admission region, so churn acceptance and blocking are both
exercised at the default arrival rate.
"""

from __future__ import annotations

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

__all__ = ["demo_tandem", "undersized_tandem", "TARGET_FLOW_ID"]

#: Flow id of the conformant end-to-end target flow.
TARGET_FLOW_ID = 0

# The tandem's constant parts, built once: a sweep describes a tandem
# per cell and per pass.  The target flow's shape is also the churning
# flows' template (whose flow id the churn process ignores).
_LINK_RATE = mbps(48.0)
_BUFFER_SIZE = mbytes(1.0)
_TARGET = FlowSpec(
    flow_id=TARGET_FLOW_ID,
    peak_rate=mbps(8.0),
    avg_rate=mbps(2.0),
    bucket=kbytes(50.0),
    token_rate=mbps(2.0),
    conformant=True,
    mean_burst=kbytes(50.0),
)
# Independent cross-traffic per hop: bursty, over-subscribed relative
# to its reservation (mean burst 5x the bucket, like the paper's
# non-conformant flows).
_CROSS = dict(
    peak_rate=mbps(24.0),
    avg_rate=mbps(6.0),
    bucket=kbytes(50.0),
    token_rate=mbps(4.0),
    conformant=False,
    mean_burst=kbytes(250.0),
)
# The negative control's cross-traffic: bursts heavy enough to fill its
# small buffer.
_HEAVY_CROSS = dict(
    peak_rate=mbps(40.0),
    avg_rate=mbps(12.0),
    bucket=kbytes(50.0),
    token_rate=mbps(12.0),
    conformant=False,
    mean_burst=kbytes(400.0),
)


def _tandem(hops: int, scheme: Scheme, buffer_size: float, cross: dict):
    """``(nodes, links, flows)`` of a ``hops``-hop tandem ``n0 -> … -> n<hops>``.

    Every hop runs ``scheme`` over ``buffer_size``; the target flow
    crosses every hop (its route is ``flows[0].route``), and two
    ``cross``-shaped flows per hop enter at hop i and leave at node i+1.
    """
    names = [f"n{i}" for i in range(hops + 1)]
    nodes = tuple(
        NodeSpec(name=name, scheme=scheme, buffer_size=buffer_size)
        for name in names[:-1]
    ) + (NodeSpec(name=names[-1]),)
    links = tuple(
        LinkSpec(names[i], names[i + 1], _LINK_RATE) for i in range(hops)
    )
    flows = [RoutedFlow(spec=_TARGET, route=tuple(names))]
    for hop in range(hops):
        for lane in range(2):
            flows.append(
                RoutedFlow(
                    spec=FlowSpec(flow_id=100 + 2 * hop + lane, **cross),
                    route=(names[hop], names[hop + 1]),
                )
            )
    return nodes, links, tuple(flows)


def demo_tandem(
    *,
    hops: int = 3,
    seed: int = 0,
    sim_time: float = 8.0,
    churn: bool = True,
    reclamation: bool = False,
    delay_histograms: bool = True,
    arrival_rate: float = 6.0,
    mean_holding: float = 4.0,
) -> NetworkScenario:
    """The reference ``hops``-hop tandem scenario.

    Args:
        hops: number of links in the tandem (>= 1).
        seed: root seed for every stream in the run.
        sim_time: total simulated seconds.
        churn: include the dynamic-flow population.
        reclamation: run churn over live buffer pools (departures
            reclaim reservations, thresholds rescale online); requires
            ``churn=True`` to have any effect.
        delay_histograms: record per-hop and end-to-end delay
            histograms (the CLI prints end-to-end percentiles).
        arrival_rate: Poisson arrival rate of the churn population in
            flows per simulated second (ignored without ``churn``); the
            sweep DSL uses it as its churn-load axis.
        mean_holding: mean exponential holding time of accepted dynamic
            flows, simulated seconds (ignored without ``churn``).
    """
    nodes, links, flows = _tandem(hops, Scheme.FIFO_THRESHOLD, _BUFFER_SIZE, _CROSS)
    churn_spec = None
    if churn:
        churn_spec = ChurnSpec(
            arrival_rate=arrival_rate,
            mean_holding=mean_holding,
            templates=(_TARGET,),
            routes=(flows[0].route,),
            admission="auto",
            reclamation=reclamation,
        )

    return NetworkScenario(
        nodes=nodes,
        links=links,
        flows=flows,
        churn=churn_spec,
        sim_time=sim_time,
        seed=seed,
        delay_histograms=delay_histograms,
    )


def undersized_tandem(
    *,
    hops: int = 2,
    seed: int = 0,
) -> NetworkScenario:
    """The negative control: an overloaded tail-drop tandem, 6 s long.

    Same shaped target flow as :func:`demo_tandem`, but the hops run
    plain FIFO tail-drop over a buffer an order of magnitude smaller,
    and the cross-traffic bursts are heavy enough to fill it.  Without
    per-flow thresholds the conformant flow shares fate with the
    bursts, so a :class:`~repro.obs.monitor.ConformanceMonitor` watching
    it reports ``conformant-drop`` violations — the paper's motivating
    failure mode, reproduced on demand (``repro obs monitor
    --undersized``).
    """
    nodes, links, flows = _tandem(hops, Scheme.FIFO_NONE, kbytes(40.0), _HEAVY_CROSS)
    return NetworkScenario(
        nodes=nodes,
        links=links,
        flows=flows,
        sim_time=6.0,
        seed=seed,
        delay_histograms=False,
    )
