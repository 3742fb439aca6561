"""Scenario runner: the paper's single-port experiment.

``run_scenario`` reproduces the paper's simulation setup: every flow is a
Markov-modulated on-off source; conformant flows pass through a leaky-
bucket regulator; all flows share one output port whose scheduler and
buffer manager are chosen by the scheme under study.  It is the one-link
case of :func:`~repro.experiments.fabric.run_fabric` and returns that
link's measurements.  Statistics are collected after a warmup period.
Replications over seeds (the paper's 5-run mean ± 95% CI) are campaign
batches folded by :func:`~repro.experiments.sweep.aggregate.fold_seeds`,
through :func:`~repro.experiments.spec.run_spec` or a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.fabric import NetworkScenario, run_fabric
from repro.experiments.schemes import DEFAULT_HEADROOM, Scheme
from repro.experiments.workloads import LINK_RATE, PACKET_SIZE
from repro.metrics.collector import FlowStats, LinkMeasures, StatsCollector
from repro.traffic.profiles import FlowSpec

__all__ = ["ScenarioResult", "run_scenario"]


@dataclass
class ScenarioResult(LinkMeasures):
    """Measurements of one simulation run.

    All byte counters cover the measurement window ``[warmup, sim_time]``.
    """

    scheme: Scheme
    buffer_size: float
    link_rate: float
    sim_time: float
    warmup: float
    seed: int
    flow_stats: dict[int, FlowStats] = field(default_factory=dict)
    thresholds: dict[int, float] = field(default_factory=dict)
    queue_rates: list[float] | None = None
    queue_buffers: list[float] | None = None
    events_processed: int = 0
    collector: StatsCollector | None = None
    #: Engine execution stats (the event queue's lazy-deletion counters
    #: at end of run).  Pure execution detail — campaign records never
    #: serialize these.
    cancelled_pending: int = 0
    compactions: int = 0

    def delay_percentile(self, flow_id: int, q: float) -> float:
        """Per-flow delay percentile; needs ``delay_histograms=True``."""
        if self.collector is None:
            raise ConfigurationError("scenario was run without a collector")
        return self.collector.delay_histogram(flow_id).percentile(q)


def run_scenario(
    flows: Sequence[FlowSpec],
    scheme: Scheme,
    buffer_size: float,
    *,
    link_rate: float = LINK_RATE,
    sim_time: float = 20.0,
    warmup: float | None = None,
    seed: int = 0,
    headroom: float = DEFAULT_HEADROOM,
    groups: Sequence[Sequence[int]] | None = None,
    packet_size: float = PACKET_SIZE,
    delay_histograms: bool = False,
    max_events: int | None = None,
    sink=None,
    timeline=None,
    monitor=None,
) -> ScenarioResult:
    """Simulate one scheme on one workload and return the measurements.

    Args:
        flows: the flow population.
        scheme: scheduler/buffer-policy combination.
        buffer_size: total buffer ``B`` in bytes.
        link_rate: output link rate in bytes/second.
        sim_time: total simulated seconds.
        warmup: measurement start; defaults to 10% of ``sim_time``.
        seed: root seed; each flow's source gets an independent stream.
        headroom: ``H`` for the sharing schemes.
        groups: flow grouping for hybrid schemes.
        packet_size: bytes per packet.
        delay_histograms: record per-flow delay percentiles (exposed via
            ``result.delay_percentile(flow_id, q)``).
        max_events: optional event budget for this run; exceeding it
            raises :class:`~repro.errors.SimulationError`.  Campaigns use
            this as a per-job safety valve.
        sink: optional :class:`~repro.obs.sink.TraceSink`; when given, the
            port fans it out to every layer (engine, scheduler, manager)
            and the run emits a structured event stream.
        timeline: optional :class:`~repro.obs.timeline.Timeline`; the
            fabric wires occupancy probes and installs the sampler (the
            caller keeps the reference and reads the filled series).
        monitor: optional
            :class:`~repro.obs.monitor.ConformanceMonitor`; armed with
            the run's analytic bounds and finalized by the fabric (read
            ``monitor.last_report`` afterwards).
    """
    scenario = NetworkScenario.single_node(
        flows,
        scheme,
        buffer_size,
        link_rate=link_rate,
        sim_time=sim_time,
        warmup=warmup,
        seed=seed,
        headroom=headroom,
        groups=groups,
        packet_size=packet_size,
        delay_histograms=delay_histograms,
        max_events=max_events,
    )
    fabric = run_fabric(scenario, sink=sink, timeline=timeline, monitor=monitor)
    (link,) = fabric.links.values()
    result = ScenarioResult(
        scheme=scheme,
        buffer_size=link.buffer_size,
        link_rate=link.rate,
        sim_time=sim_time,
        warmup=fabric.warmup,
        seed=seed,
        flow_stats=dict(link.flow_stats),
        thresholds=link.thresholds,
        queue_rates=link.queue_rates,
        queue_buffers=link.queue_buffers,
        events_processed=fabric.events_processed,
        collector=link.collector,
        cancelled_pending=fabric.cancelled_pending,
        compactions=fabric.compactions,
    )
    # Flows that never got a packet through still deserve an entry.
    for flow in flows:
        result.flow_stats.setdefault(flow.flow_id, FlowStats())
    return result

