"""Scenario fabric execution: one entry point for any topology.

:func:`run_fabric` simulates a :class:`NetworkScenario`.  Two paths:

* **single-port fast path** — when the scenario is the one-node special
  case (:attr:`NetworkScenario.is_single_port`), the run is constructed
  exactly as the historical :func:`~repro.experiments.runner.run_scenario`
  did: same object construction order, same seed-spawn order.  The
  equivalence goldens pin this path byte-for-byte.
* **general path** — nodes, links and routes are materialised as a
  :class:`repro.net.topology.Network`.  Per-link thresholds are
  computed from the *inflated* burst envelope at each hop
  (:func:`~repro.net.topology.per_hop_sigma`), so a conformant flow
  that fits at its first hop keeps its lossless guarantee downstream.

The two paths produce identical measurements for the same single-node
scenario — the test suite asserts it — the fast path simply avoids the
topology indirection on the hot configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.admission import AdmissionControl, FIFOAdmission, WFQAdmission
from repro.analysis.delay import worst_case_fifo_delay
from repro.core.pool import BufferPool
from repro.core.thresholds import flow_threshold
from repro.errors import ConfigurationError
from repro.experiments.fabric.churn import ChurnReport, FlowChurnProcess, HopState
from repro.experiments.fabric.scenario import DYNAMIC_FLOW_BASE, NetworkScenario
from repro.experiments.runner import ScenarioResult
from repro.experiments.schemes import Scheme, SchemeBuild, build_scheme
from repro.metrics.collector import FlowStats, StatsCollector
from repro.net.topology import DeliverySink, Network, per_hop_sigma
from repro.obs.monitor import MonitorReport
from repro.obs.sink import TeeSink
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import OnOffSource

__all__ = ["LinkResult", "FabricResult", "run_fabric"]

#: Schemes whose scheduler accepts packets from flows it has never seen
#: (FIFO keeps one queue).  Churn requires these at every hop: WFQ/SCFQ
#: weights are fixed at construction, so a dynamically arriving flow
#: would have no weight.
_CHURN_SCHEMES = (Scheme.FIFO_NONE, Scheme.FIFO_THRESHOLD, Scheme.FIFO_SHARING)


@dataclass
class LinkResult:
    """Per-link measurements of one fabric run."""

    label: str
    src: str
    dst: str
    rate: float
    buffer_size: float
    collector: StatsCollector
    thresholds: dict[int, float] = field(default_factory=dict)
    queue_rates: list[float] | None = None
    queue_buffers: list[float] | None = None

    @property
    def flow_stats(self) -> dict[int, FlowStats]:
        return self.collector.flows


@dataclass
class FabricResult:
    """Measurements of one fabric run (any topology).

    ``scenario_result`` is populated only on the single-port fast path,
    where it is exactly what the historical runner returned.
    """

    scenario: NetworkScenario
    events_processed: int
    #: Engine execution stats for telemetry: the event queue's
    #: end-of-run lazy-deletion counters.  Execution detail, not
    #: measurement — never serialized into records.
    cancelled_pending: int = 0
    compactions: int = 0
    links: dict[str, LinkResult] = field(default_factory=dict)
    delivery: DeliverySink | None = None
    delivery_collector: StatsCollector | None = None
    churn: ChurnReport | None = None
    scenario_result: ScenarioResult | None = None
    #: The timeline passed into :func:`run_fabric`, post-run (series
    #: filled); None when sampling was not requested.
    timeline: object | None = None
    #: The conformance monitor's finalized findings; None when no
    #: monitor was attached.
    monitor_report: MonitorReport | None = None

    @property
    def warmup(self) -> float:
        return self.scenario.effective_warmup

    @property
    def duration(self) -> float:
        return self.scenario.sim_time - self.warmup

    def link(self, src: str, dst: str) -> LinkResult:
        label = f"{src}->{dst}"
        result = self.links.get(label)
        if result is None:
            raise ConfigurationError(f"no link {label} in this run")
        return result

    def end_to_end_percentile(self, flow_id: int, q: float) -> float:
        """End-to-end delay percentile; needs ``delay_histograms=True``."""
        if self.delivery_collector is None:
            raise ConfigurationError(
                "end-to-end delays are only recorded on the network path"
            )
        return self.delivery_collector.delay_histogram(flow_id).percentile(q)


def _admission_for(scheme: Scheme, mode: str, rate: float, buffer_size: float) -> AdmissionControl:
    if mode == "fifo":
        return FIFOAdmission(rate, buffer_size)
    if mode == "wfq":
        return WFQAdmission(rate, buffer_size)
    if scheme in _CHURN_SCHEMES:
        return FIFOAdmission(rate, buffer_size)
    return WFQAdmission(rate, buffer_size)


def run_fabric(
    scenario: NetworkScenario,
    *,
    sink=None,
    registry=None,
    timeline=None,
    monitor=None,
) -> FabricResult:
    """Simulate a scenario and return its measurements.

    Args:
        scenario: the declarative experiment.
        sink: optional :class:`~repro.obs.sink.TraceSink`; events carry
            per-hop ``node`` labels on the network path.
        registry: optional :class:`~repro.obs.registry.MetricsRegistry`;
            network runs register the engine once and each link under
            ``node``/``link`` labels.
        timeline: optional :class:`~repro.obs.timeline.Timeline`; probes
            for every hop's occupancy/free space (plus headroom, pool
            split and churn counts where applicable, and per-flow
            occupancy for ``timeline.flows``) are wired and the sampler
            installed for the run.  The filled timeline is returned on
            :attr:`FabricResult.timeline`.
        monitor: optional :class:`~repro.obs.monitor.ConformanceMonitor`;
            attached alongside ``sink`` (teed), armed with the
            scenario's analytic bounds, and finalized into
            :attr:`FabricResult.monitor_report`.
    """
    if scenario.is_single_port:
        return _run_single_port(
            scenario, sink=sink, registry=registry,
            timeline=timeline, monitor=monitor,
        )
    return _run_network(
        scenario, sink=sink, registry=registry,
        timeline=timeline, monitor=monitor,
    )


def _effective_sink(sink, monitor):
    """The sink components attach: the recording sink, the monitor, or both."""
    if monitor is None:
        return sink
    monitor.attach_trace(sink)
    if sink is None:
        return monitor
    return TeeSink(sink, monitor)


def _hop_delay_bound(build: SchemeBuild, buffer_size: float, rate: float):
    """Worst-case per-hop queueing delay, or None when no tight bound applies.

    FIFO-family schemes share one queue drained at the link rate, so
    every admitted packet obeys ``B / R`` exactly.  WFQ-family schemes
    would need the per-queue service guarantee plus the scheduler's
    packetisation slack; the monitor stays silent rather than checking
    against a bound that legitimate runs can exceed.
    """
    if build.queue_rates is not None:
        return None
    return worst_case_fifo_delay(buffer_size, rate)


def _wire_link_monitor(
    monitor, node: str, build: SchemeBuild, buffer_size: float, rate: float
) -> None:
    """Arm per-hop checks: the delay bound and hard-threshold occupancy."""
    bound = _hop_delay_bound(build, buffer_size, rate)
    if bound is not None:
        monitor.set_hop_bound(node, bound)
    manager = build.manager
    if getattr(type(manager), "enforces_thresholds", False):
        for flow_id in build.thresholds:
            monitor.add_occupancy_check(
                node,
                flow_id,
                (lambda manager=manager, fid=flow_id: manager.occupancy(fid)),
                (lambda manager=manager, fid=flow_id: manager.threshold(fid)),
            )


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


def _run_single_port(
    scenario: NetworkScenario, *, sink=None, registry=None,
    timeline=None, monitor=None,
) -> FabricResult:
    """The historical ``run_scenario`` pipeline, verbatim.

    Construction order and seed-spawn order are exactly those of the
    pre-fabric runner — this is what keeps the equivalence goldens
    byte-identical.
    """
    link = scenario.links[0]
    node = scenario.node(link.src)
    flows = tuple(routed.spec for routed in scenario.flows)
    warmup = scenario.effective_warmup

    sim = Simulator()
    build: SchemeBuild = build_scheme(
        sim,
        node.scheme,
        flows,
        node.buffer_size,
        link.rate,
        headroom=node.headroom,
        groups=node.groups,
    )
    collector = StatsCollector(
        warmup=warmup, delay_histograms=scenario.delay_histograms
    )
    port = OutputPort(sim, link.rate, build.scheduler, build.manager, collector)
    effective = _effective_sink(sink, monitor)
    if effective is not None:
        port.attach_trace(effective)
    if registry is not None:
        port.register_metrics(registry)
    if monitor is not None:
        # Single-port events carry the empty node label.
        _wire_link_monitor(monitor, "", build, node.buffer_size, link.rate)
        for flow in flows:
            if flow.conformant:
                monitor.watch_flow(flow.flow_id, shaped=True, route=("",))
        monitor.install(sim, scenario.sim_time)
    if timeline is not None:
        _wire_link_timeline(
            timeline, "", build, frozenset(flow.flow_id for flow in flows)
        )
        timeline.probe("backlog_packets", lambda: float(port.backlog_packets))
        timeline.install(sim, scenario.sim_time)

    seed_seq = np.random.SeedSequence(scenario.seed)
    child_seqs = seed_seq.spawn(len(flows))
    for flow, child in zip(flows, child_seqs):
        destination = port
        if flow.conformant:
            destination = LeakyBucketShaper(sim, flow.bucket, flow.token_rate, port)
        OnOffSource(
            sim,
            flow.flow_id,
            flow.peak_rate,
            flow.avg_rate,
            flow.mean_burst,
            destination,
            np.random.default_rng(child),
            packet_size=scenario.packet_size,
            until=scenario.sim_time,
        )

    sim.run(until=scenario.sim_time, max_events=scenario.max_events)

    result = ScenarioResult(
        scheme=node.scheme,
        buffer_size=node.buffer_size,
        link_rate=link.rate,
        sim_time=scenario.sim_time,
        warmup=warmup,
        seed=scenario.seed,
        flow_stats=dict(collector.flows),
        thresholds=build.thresholds,
        queue_rates=build.queue_rates,
        queue_buffers=build.queue_buffers,
        events_processed=sim.events_processed,
        collector=collector,
        cancelled_pending=sim.cancelled_pending,
        compactions=sim.compactions,
    )
    # Flows that never got a packet through still deserve an entry.
    for flow in flows:
        result.flow_stats.setdefault(flow.flow_id, FlowStats())

    return FabricResult(
        scenario=scenario,
        events_processed=sim.events_processed,
        cancelled_pending=sim.cancelled_pending,
        compactions=sim.compactions,
        links={
            link.label: LinkResult(
                label=link.label,
                src=link.src,
                dst=link.dst,
                rate=link.rate,
                buffer_size=node.buffer_size,
                collector=collector,
                thresholds=build.thresholds,
                queue_rates=build.queue_rates,
                queue_buffers=build.queue_buffers,
            )
        },
        scenario_result=result,
        timeline=timeline,
        monitor_report=None if monitor is None else monitor.finalize(),
    )


def _run_network(
    scenario: NetworkScenario, *, sink=None, registry=None,
    timeline=None, monitor=None,
) -> FabricResult:
    """The general path: materialise the topology and route flows."""
    warmup = scenario.effective_warmup
    sim = Simulator()
    delivery_collector = StatsCollector(
        warmup=warmup, delay_histograms=scenario.delay_histograms
    )
    delivery = DeliverySink(collector=delivery_collector)
    net = Network(sim, sink=delivery)
    for node in scenario.nodes:
        net.add_node(node.name)

    # Worst-case queueing delay per link, for burst-envelope inflation.
    link_delay = {
        (link.src, link.dst): scenario.node(link.src).buffer_size / link.rate
        for link in scenario.links
    }
    # flow id -> {(src, dst): effective sigma at that hop's entry}.
    hop_sigmas: dict[int, dict[tuple[str, str], float]] = {}
    for routed in scenario.flows:
        hops = list(zip(routed.route, routed.route[1:]))
        sigmas = per_hop_sigma(
            routed.spec.bucket,
            routed.spec.token_rate,
            [link_delay[hop] for hop in hops],
        )
        hop_sigmas[routed.spec.flow_id] = dict(zip(hops, sigmas))

    links: dict[str, LinkResult] = {}
    builds: dict[tuple[str, str], SchemeBuild] = {}
    for link in scenario.links:
        node = scenario.node(link.src)
        key = (link.src, link.dst)
        crossing = [
            routed
            for routed in scenario.flows
            if key in hop_sigmas[routed.spec.flow_id]
        ]
        # Thresholds at this hop are sized for the *inflated* envelope:
        # sigma grows by rho * D across every upstream hop.
        effective = [
            dataclasses.replace(
                routed.spec, bucket=hop_sigmas[routed.spec.flow_id][key]
            )
            for routed in crossing
        ]
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
        net.add_link(
            link.src, link.dst, link.rate, build.scheduler, build.manager,
            collector=collector,
        )
        builds[key] = build
        links[link.label] = LinkResult(
            label=link.label,
            src=link.src,
            dst=link.dst,
            rate=link.rate,
            buffer_size=node.buffer_size,
            collector=collector,
            thresholds=build.thresholds,
            queue_rates=build.queue_rates,
            queue_buffers=build.queue_buffers,
        )

    for routed in scenario.flows:
        net.set_route(routed.spec.flow_id, list(routed.route))

    effective = _effective_sink(sink, monitor)
    if effective is not None:
        net.attach_trace(effective)
    if registry is not None:
        net.register_metrics(registry)
    if monitor is not None:
        for link in scenario.links:
            key = (link.src, link.dst)
            _wire_link_monitor(
                monitor,
                link.label,
                builds[key],
                scenario.node(link.src).buffer_size,
                link.rate,
            )
        for routed in scenario.flows:
            if routed.spec.conformant:
                route_labels = tuple(
                    f"{src}->{dst}"
                    for src, dst in zip(routed.route, routed.route[1:])
                )
                monitor.watch_flow(
                    routed.spec.flow_id, shaped=True, route=route_labels
                )
        monitor.install(sim, scenario.sim_time)
    if timeline is not None:
        for link in scenario.links:
            key = (link.src, link.dst)
            crossing = frozenset(
                routed.spec.flow_id
                for routed in scenario.flows
                if key in hop_sigmas[routed.spec.flow_id]
            )
            _wire_link_timeline(timeline, link.label, builds[key], crossing)

    seed_seq = np.random.SeedSequence(scenario.seed)
    child_seqs = seed_seq.spawn(len(scenario.flows))
    for routed, child in zip(scenario.flows, child_seqs):
        flow = routed.spec
        rng = np.random.default_rng(child)
        destination = net.entry(flow.flow_id)
        if flow.conformant:
            destination = LeakyBucketShaper(
                sim, flow.bucket, flow.token_rate, destination
            )
        OnOffSource(
            sim,
            flow.flow_id,
            flow.peak_rate,
            flow.avg_rate,
            flow.mean_burst,
            destination,
            rng,
            packet_size=scenario.packet_size,
            until=scenario.sim_time,
        )

    churn_process = None
    if scenario.churn is not None:
        churn_process = _start_churn(
            sim, net, scenario, links, builds, hop_sigmas, seed_seq,
            sink=effective, monitor=monitor,
        )
        if timeline is not None:
            timeline.probe(
                "churn.active", lambda: float(churn_process.active_count)
            )
            timeline.probe(
                "churn.blocked", lambda: float(churn_process.report.blocked)
            )
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
    if timeline is not None:
        timeline.install(sim, scenario.sim_time)

    sim.run(until=scenario.sim_time, max_events=scenario.max_events)

    return FabricResult(
        scenario=scenario,
        events_processed=sim.events_processed,
        cancelled_pending=sim.cancelled_pending,
        compactions=sim.compactions,
        links=links,
        delivery=delivery,
        delivery_collector=delivery_collector,
        churn=None if churn_process is None else churn_process.finalize(),
        timeline=timeline,
        monitor_report=None if monitor is None else monitor.finalize(delivery),
    )


def _start_churn(
    sim: Simulator,
    net: Network,
    scenario: NetworkScenario,
    links: dict[str, LinkResult],
    builds: dict[tuple[str, str], SchemeBuild],
    hop_sigmas: dict[int, dict[tuple[str, str], float]],
    seed_seq: np.random.SeedSequence,
    *,
    sink=None,
    monitor=None,
) -> FlowChurnProcess:
    """Build per-hop admission state, pre-book statics, start the process."""
    spec = scenario.churn
    churn_nodes = {name for route in spec.routes for name in route[:-1]}
    for name in sorted(churn_nodes):
        node = scenario.node(name)
        if node.scheme not in _CHURN_SCHEMES:
            raise ConfigurationError(
                f"churn requires a FIFO-family scheme at every hop; node "
                f"{name} runs {node.scheme} whose scheduler cannot accept "
                "dynamically arriving flows"
            )

    hops: dict[tuple[str, str], HopState] = {}
    for link in scenario.links:
        key = (link.src, link.dst)
        node = scenario.node(link.src)
        pool = None
        if spec.reclamation:
            pool = BufferPool(node.buffer_size, node=link.label)
            if sink is not None:
                pool.attach_trace(sink, lambda: sim.now)
        hops[key] = HopState(
            src=link.src,
            label=link.label,
            admission=_admission_for(
                node.scheme, spec.admission, link.rate, node.buffer_size
            ),
            manager=builds[key].manager,
            buffer_size=node.buffer_size,
            rate=link.rate,
            pool=pool,
        )

    # Pre-book the static population: churn must see the residual region.
    # With reclamation the statics' base (pre-rescale) thresholds are also
    # reserved in each pool — in scenario.flows order, so the pool's
    # reservation sums match build_scheme's threshold computation exactly.
    for routed in scenario.flows:
        for key, sigma in hop_sigmas[routed.spec.flow_id].items():
            decision = hops[key].admission.admit(sigma, routed.spec.token_rate)
            if not decision:
                raise ConfigurationError(
                    f"static flow {routed.spec.flow_id} does not fit the "
                    f"admission region at link {hops[key].label} "
                    f"({decision.reason.value}); churn blocking would be "
                    "meaningless over an over-booked network"
                )
            state = hops[key]
            if state.pool is not None:
                state.pool.reserve(
                    routed.spec.flow_id,
                    flow_threshold(
                        sigma,
                        routed.spec.token_rate,
                        state.buffer_size,
                        state.rate,
                    ),
                )

    return FlowChurnProcess(
        sim, net, scenario, hops, seed_seq.spawn(1)[0], DYNAMIC_FLOW_BASE,
        monitor=monitor,
    )
