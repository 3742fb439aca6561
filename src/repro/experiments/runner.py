"""Scenario runner: the paper's single-port experiment.

``run_scenario`` reproduces the paper's simulation setup: every flow is a
Markov-modulated on-off source; conformant flows pass through a leaky-
bucket regulator; all flows share one output port whose scheduler and
buffer manager are chosen by the scheme under study.  It is the one-link
case of :func:`~repro.experiments.fabric.run_fabric` and returns its
:class:`~repro.experiments.fabric.FabricResult`, whose one-link view
(``flow_stats``, ``utilization()`` …) reads the only link.  Statistics
are collected after a warmup period.
Replications over seeds (the paper's 5-run mean ± 95% CI) are campaign
batches folded by :func:`~repro.experiments.sweep.aggregate.fold_seeds`,
through :func:`~repro.experiments.spec.run_spec` or a sweep.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.fabric import FabricResult, NetworkScenario, run_fabric
from repro.experiments.schemes import DEFAULT_HEADROOM, Scheme
from repro.experiments.workloads import LINK_RATE, PACKET_SIZE
from repro.traffic.profiles import FlowSpec

__all__ = ["run_scenario"]


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
) -> FabricResult:
    """Simulate one scheme on one workload; return the one-link fabric result.

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
            the run's analytic bounds and finalized by the fabric into
            ``result.monitor_report``.
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
    return run_fabric(scenario, sink=sink, timeline=timeline, monitor=monitor)
