"""Scenario fabric execution: one pipeline for any topology.

:func:`run_fabric` simulates a :class:`NetworkScenario` — the paper's
single output port and a multi-hop tandem with churn alike — through one
body: nodes, links and routes are materialised as a
:class:`repro.net.topology.Network`; each link gets its scheme, collector
and port; sink, monitor and timeline are attached; sources are
plugged into their first-hop ports; the engine runs.

Per-link thresholds are computed from the *inflated* burst envelope at
each hop (:func:`~repro.net.topology.per_hop_sigma`), so a conformant
flow that fits at its first hop keeps its lossless guarantee downstream.
On a one-hop route nothing inflates, which is why the single port is the
one-link case of this pipeline and not a second one: construction order
and seed-spawn order are the same for every shape, and the equivalence
goldens pin the one-link case byte-for-byte.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.analysis.delay import worst_case_fifo_delay
from repro.errors import ConfigurationError
from repro.experiments.fabric.churn import (
    ChurnReport,
    FlowChurnProcess,
    _check_occupancy,
    _start_source,
    book_hops,
    churn_scheme_faults,
)
from repro.experiments.fabric.scenario import DYNAMIC_FLOW_BASE, NetworkScenario
from repro.experiments.schemes import SchemeBuild, build_scheme
from repro.metrics.collector import FlowStats, LinkMeasures, StatsCollector, accounted
from repro.metrics.records import LinkRecord
from repro.net.topology import DeliverySink, Network
from repro.obs.monitor import MonitorReport
from repro.obs.sink import TeeSink
from repro.sim.engine import Simulator
from repro.sim.rng import SeedSequence

__all__ = ["FabricResult", "run_fabric"]


@dataclass
class FabricResult(LinkMeasures):
    """Measurements of one fabric run (any topology).

    On a one-link run it also answers the one-link measurement API
    (:class:`~repro.metrics.collector.LinkMeasures`) through its only
    link, as its record does.
    """

    scenario: NetworkScenario
    events_processed: int
    #: The collector that measured end to end: the delivery collector
    #: on a network; on one link, the link's own (nothing is counted a
    #: second time past it).
    end_to_end: StatsCollector
    #: Not fields: read by benchmarks/e2e/workloads.py; the engine cannot cancel.
    cancelled_pending = 0
    compactions = 0
    #: Each link's measurements, already plain data.
    links: dict[str, LinkRecord] = field(default_factory=dict)
    #: Whole-run per-flow delivery counters at the end of the routes;
    #: None on a one-link scenario, where the link's own statistics
    #: already are end to end.
    delivery: dict[int, FlowStats] | None = None
    churn: ChurnReport | None = None
    #: The conformance monitor's finalized findings; None when no
    #: monitor was attached.
    monitor_report: MonitorReport | None = None

    @property
    def sim_time(self) -> float:
        return self.scenario.sim_time

    @property
    def warmup(self) -> float:
        return self.scenario.effective_warmup

    def delay_percentile(self, flow_id: int, q: float) -> float:
        """End-to-end delay percentile; needs ``delay_histograms=True``."""
        return self.end_to_end.delay_histogram(flow_id).percentile(q)


def _wire_link_monitor(
    monitor, node: str, build: SchemeBuild, buffer_size: float, rate: float
) -> None:
    """Arm per-hop checks: the delay bound and hard-threshold occupancy.

    FIFO-family schemes share one queue drained at the link rate, so
    every admitted packet obeys ``B / R`` exactly.  WFQ-family schemes
    would need the per-queue service guarantee plus the scheduler's
    packetisation slack; the monitor stays silent rather than checking
    against a bound that legitimate runs can exceed.
    """
    if build.queue_rates is None:
        monitor.set_hop_bound(node, worst_case_fifo_delay(buffer_size, rate))
    if getattr(type(build.manager), "enforces_thresholds", False):
        for flow_id in build.thresholds:
            _check_occupancy(monitor, node, flow_id, build.manager)


def _wire_link_timeline(
    timeline, node: str, build: SchemeBuild, crossing_flows
) -> None:
    """Register a hop's occupancy/headroom probes on the timeline."""
    manager = build.manager
    timeline.probe(
        "occupancy", (lambda manager=manager: manager.total_occupancy), node=node
    )
    timeline.probe(
        "free_space", (lambda manager=manager: manager.free_space), node=node
    )
    if hasattr(manager, "headroom") and hasattr(manager, "holes"):
        timeline.probe(
            "headroom", (lambda manager=manager: manager.headroom), node=node
        )
        timeline.probe("holes", (lambda manager=manager: manager.holes), node=node)
    for flow_id in timeline.flows:
        if flow_id in crossing_flows:
            timeline.probe(
                f"flow{flow_id}.occupancy",
                (lambda manager=manager, fid=flow_id: manager.occupancy(fid)),
                node=node,
            )


def _wire_churn_timeline(timeline, churn_process: FlowChurnProcess) -> None:
    """Register the churn counts and each hop's pool split."""
    timeline.probe("churn.active", lambda: float(churn_process.active_count))
    timeline.probe("churn.blocked", lambda: float(churn_process.report.blocked))
    for state in churn_process.hops.values():
        pool = state.pool
        if pool is None:
            continue
        timeline.probe(
            "pool.reserved",
            (lambda pool=pool: pool.reserved_total),
            node=state.label,
        )
        timeline.probe(
            "pool.headroom",
            (lambda pool=pool: pool.headroom),
            node=state.label,
        )
        timeline.probe(
            "pool.holes", (lambda pool=pool: pool.holes), node=state.label
        )


def run_fabric(
    scenario: NetworkScenario,
    *,
    sink=None,
    timeline=None,
    monitor=None,
) -> FabricResult:
    """Simulate a scenario and return its measurements.

    Args:
        scenario: the declarative experiment.
        sink: optional :class:`~repro.obs.sink.TraceSink`; events carry
            per-hop ``node`` labels (the empty label on a one-link
            scenario).
        timeline: optional :class:`~repro.obs.timeline.Timeline`; probes
            for every hop's occupancy/free space (plus headroom, pool
            split and churn counts where applicable, and per-flow
            occupancy for ``timeline.flows``) are wired and the sampler
            installed for the run; the caller keeps it and reads the
            filled series.
        monitor: optional :class:`~repro.obs.monitor.ConformanceMonitor`;
            attached alongside ``sink`` (teed), armed with the
            scenario's analytic bounds, and finalized into
            :attr:`FabricResult.monitor_report`.
    """
    # What a one-link, no-churn scenario does differently, as values: its
    # hop carries the empty label (so traces and series read as
    # "the port"), nothing is counted a second time past its only link,
    # and the timeline also samples the port's packet backlog.
    single = scenario.is_single_port
    warmup = scenario.effective_warmup
    sim = Simulator()
    delivery = None
    if not single:
        end_to_end = StatsCollector(warmup=warmup, delay_histograms=scenario.delay_histograms)
        delivery = DeliverySink(collector=end_to_end)
    net = Network(sim, sink=delivery)
    for node in scenario.nodes:
        net.add_node(node.name)
    # What components attach: the recording sink alone, or a tee of it and the monitor.
    effective_sink = sink
    if monitor is not None:
        monitor.attach_trace(sink)
        effective_sink = TeeSink(monitor) if sink is None else TeeSink(sink, monitor)
    hop_sigmas = scenario.hop_sigmas()

    # Each link with its buffer, collector, routed static flows and scheme
    # build: measured into a LinkRecord once the run is over.
    measured = []
    managers: dict[tuple[str, str], object] = {}
    for link in scenario.links:
        node = scenario.node(link.src)
        key = (link.src, link.dst)
        label = "" if single else link.label
        # Thresholds at this hop are sized for the *inflated* envelope:
        # sigma grows by rho * D across every upstream hop.  At a flow's
        # first hop nothing has inflated yet, so its spec serves as is.
        effective = []
        for routed in scenario.flows:
            sigma = hop_sigmas[routed.spec.flow_id].get(key)
            if sigma is not None:
                spec = routed.spec
                effective.append(
                    spec if sigma == spec.bucket else dataclasses.replace(spec, bucket=sigma)
                )
        build = build_scheme(
            sim,
            node.scheme,
            effective,
            node.buffer_size,
            link.rate,
            headroom=node.headroom,
            groups=node.groups,
        )
        collector = StatsCollector(
            warmup=warmup, delay_histograms=scenario.delay_histograms
        )
        port = net.add_link(
            link.src, link.dst, link.rate, build.scheduler, build.manager,
            collector=collector, label=label, deliver=not single,
        )
        managers[key] = build.manager
        routed_ids = frozenset(flow.flow_id for flow in effective)
        measured.append((link, node.buffer_size, collector, routed_ids, build))
        if single:
            end_to_end = collector
        if monitor is not None:
            _wire_link_monitor(monitor, label, build, node.buffer_size, link.rate)
        if timeline is not None:
            _wire_link_timeline(timeline, label, build, routed_ids)
            if single:
                timeline.probe(
                    "backlog_packets",
                    (lambda port=port: float(port.backlog_packets)),
                )

    for routed in scenario.flows:
        net.set_route(routed.spec.flow_id, list(routed.route))
    if effective_sink is not None:
        net.attach_trace(effective_sink)
    if monitor is not None:
        for routed in scenario.flows:
            if routed.spec.conformant:
                monitor.watch_flow(routed.spec.flow_id)
        monitor.install(sim, scenario.sim_time)

    seed_seq = SeedSequence(scenario.seed)
    child_seqs = seed_seq.spawn(len(scenario.flows))
    for routed, child in zip(scenario.flows, child_seqs):
        _start_source(sim, net, scenario, routed.spec, routed.spec.flow_id, child)

    churn_process = None
    if scenario.churn is not None:
        churn_process = _start_churn(
            sim, net, scenario, managers, hop_sigmas, seed_seq,
            sink=effective_sink, monitor=monitor,
        )
        if timeline is not None:
            _wire_churn_timeline(timeline, churn_process)
    if timeline is not None:
        timeline.install(sim, scenario.sim_time)

    sim.run(until=scenario.sim_time, max_events=scenario.max_events)

    return FabricResult(
        scenario=scenario,
        events_processed=sim.events_processed,
        end_to_end=end_to_end,
        links={
            link.label: LinkRecord(
                rate=link.rate,
                buffer_size=buffer_size,
                flow_stats=accounted(collector.flows, routed_ids),
                thresholds={i: build.thresholds[i] for i in sorted(build.thresholds)},
                queue_rates=build.queue_rates,
                queue_buffers=build.queue_buffers,
            )
            for link, buffer_size, collector, routed_ids, build in measured
        },
        delivery=None if delivery is None else delivery.flows,
        churn=None if churn_process is None else churn_process.finalize(),
        monitor_report=None if monitor is None else monitor.finalize(),
    )


def _start_churn(
    sim: Simulator,
    net: Network,
    scenario: NetworkScenario,
    managers: dict[tuple[str, str], object],
    hop_sigmas: dict[int, dict[tuple[str, str], float]],
    seed_seq: SeedSequence,
    *,
    sink=None,
    monitor=None,
) -> FlowChurnProcess:
    """Book the statics on every hop's admission state, start the process."""
    faults = churn_scheme_faults(scenario)
    if faults:
        raise ConfigurationError(faults[0])
    hops, refusals = book_hops(
        scenario, scenario.flows, hop_sigmas,
        sink=sink, clock=lambda: sim.now, managers=managers,
    )
    if refusals:
        flow, state, _sigma, decision = refusals[0]
        raise ConfigurationError(
            f"static flow {flow.flow_id} does not fit the admission region "
            f"at link {state.label} ({decision.reason.value}); churn blocking "
            "would be meaningless over an over-booked network"
        )
    return FlowChurnProcess(
        sim, net, scenario, hops, seed_seq.spawn(1)[0], DYNAMIC_FLOW_BASE,
        monitor=monitor,
    )
