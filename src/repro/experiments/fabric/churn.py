"""Dynamic flow lifecycle with route-wide admission control.

The paper's admission regions (Section 2.3) are stated per node; a flow
crossing several nodes must fit at *every* one of them.
:class:`FlowChurnProcess` drives a Poisson arrival process of candidate
flows, admission-tests each candidate hop by hop — with the burst
envelope inflated along the route (see
:func:`repro.net.topology.per_hop_sigma`) — and only instantiates a
source once every hop has accepted.  Rejections are attributed to the
first refusing hop and split by the paper's two causes:
*bandwidth-limited* (the rate sum) vs *buffer-limited* (the buffer
requirement); rejections without a classified cause are counted as
*unknown* rather than folded into either bucket.

Accepted flows hold for an exponential time, then depart: every hop's
admission books are released, the per-hop thresholds registered for the
flow are withdrawn through the manager's first-class
:meth:`~repro.core.occupancy.BufferManager.retire` API, and the source
is silenced.  Routes stay installed so in-flight packets drain normally.

With **reclamation** enabled (``ChurnSpec.reclamation``) each hop also
keeps a live :class:`~repro.core.pool.BufferPool`: buffer admission
tests against the pool (``sum(sigma_i + rho_i B / R) <= B``, which is
algebraically the paper's eq.-9 region), a departure reclaims the
flow's base reservation into the pool's headroom, and every transition
triggers the footnote-5 proportional rescale of the surviving
population's thresholds — pushed into the buffer managers through
:meth:`~repro.core.occupancy.BufferManager.reprovision`, drain-safely.

Admission is decided here only: :func:`book_hops` books the static
flows through :func:`hop_decision`, the test every arrival gets, for
the fabric before churn starts and for the static auditor (``repro
check``) alike, so the two cannot disagree about which flows fit.

All randomness (interarrivals, template and route choice, holding
times, and the per-flow source streams) derives from one
``SeedSequence`` child, spawned *after* the static flows' children —
adding churn to a scenario never perturbs the static sample paths.
Reclamation draws nothing extra, so switching it on never perturbs the
arrival pattern either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.admission import (
    AdmissionControl, Decision, FIFOAdmission, Rejection, WFQAdmission,
)
from repro.core.pool import BufferPool
from repro.core.thresholds import flow_threshold
from repro.experiments.schemes import Scheme
from repro.net.topology import Network, per_hop_sigma
from repro.sim.engine import Simulator
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.profiles import FlowSpec
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import OnOffSource

__all__ = [
    "ChurnReport", "FlowChurnProcess", "book_hops", "churn_scheme_faults",
    "hop_decision",
]

#: Schemes whose scheduler accepts packets from flows it has never seen
#: (FIFO keeps one queue).  Churn requires these at every hop: WFQ/SCFQ
#: weights are fixed at construction, so a dynamically arriving flow
#: would have no weight.
CHURN_SCHEMES = (Scheme.FIFO_NONE, Scheme.FIFO_THRESHOLD, Scheme.FIFO_SHARING)


def _start_source(
    sim: Simulator,
    network: Network,
    scenario,
    flow: FlowSpec,
    flow_id: int,
    seed: SeedSequence,
    start: float = 0.0,
) -> OnOffSource:
    """Plug one flow's on-off source into its first-hop port.

    The one definition of how a flow is fed in, for static flows (wired
    by :func:`~repro.experiments.fabric.build.run_fabric`) and churn
    flows alike: conformant flows pass through a leaky-bucket shaper.
    """
    destination = network.entry(flow_id)
    if flow.conformant:
        destination = LeakyBucketShaper(
            sim, flow.bucket, flow.token_rate, destination
        )
    return OnOffSource(
        sim,
        flow_id,
        flow.peak_rate,
        flow.avg_rate,
        flow.mean_burst,
        destination,
        Generator(seed),
        packet_size=scenario.packet_size,
        start=start,
        until=scenario.sim_time,
    )


def _check_occupancy(monitor, node: str, flow_id: int, manager) -> None:
    """Sweep-check a flow's occupancy against its *live* threshold at a hop."""
    monitor.add_occupancy_check(
        node,
        flow_id,
        lambda: manager.occupancy(flow_id),
        lambda: manager.threshold(flow_id),
    )


@dataclass
class HopState:
    """Everything churn needs to know about one link.

    Attributes:
        src: name of the node owning the egress port.
        label: the link label ``"src->dst"``.
        admission: the hop's schedulability region, pre-booked with the
            static flows crossing the link.
        manager: the link's buffer manager; dynamic per-flow thresholds
            are installed (and withdrawn) through its ``reprovision`` /
            ``retire`` API when it has per-flow thresholds.  ``None``
            where nothing is simulated (the static auditor).
        buffer_size: the hop's buffer ``B`` in bytes.
        rate: the hop's link rate ``R`` in bytes/second.
        pool: the hop's live buffer pool; only set under reclamation.
    """

    src: str
    label: str
    admission: AdmissionControl
    manager: object
    buffer_size: float
    rate: float
    pool: BufferPool | None = None
    manages_thresholds: bool = field(init=False, default=False)
    enforces_thresholds: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        # First-class contract probes (class attributes, not instance
        # duck-typing): TailDrop and friends simply report False.
        self.manages_thresholds = bool(
            getattr(type(self.manager), "has_flow_thresholds", False)
        )
        self.enforces_thresholds = bool(
            getattr(type(self.manager), "enforces_thresholds", False)
        )

    @property
    def delay_bound(self) -> float:
        """Worst-case queueing delay ``B / R`` used for sigma inflation."""
        return self.buffer_size / self.rate


def hop_decision(state: HopState, sigma: float, rho: float) -> Decision:
    """One hop's admission test for a candidate ``(sigma, rho)``.

    Without a pool the hop's region decides.  With one (reclamation)
    the test splits: bandwidth from the region's rate books, buffer from
    the live pool — the paper's eq.-9 requirement restated over base
    reservations, whatever region the admission mode chose.
    """
    if state.pool is None:
        return state.admission.check(sigma, rho)
    decision = state.admission.check_bandwidth(rho)
    if not decision:
        return decision
    base = flow_threshold(sigma, rho, state.buffer_size, state.rate)
    if not state.pool.can_reserve(base):
        return Decision(False, Rejection.BUFFER_LIMITED)
    return Decision(True)


def churn_scheme_faults(scenario) -> list[str]:
    """One message per node on a churn route that cannot take a dynamic flow."""
    churn_nodes = {name for route in scenario.churn.routes for name in route[:-1]}
    return [
        f"churn requires a FIFO-family scheme at every hop; node {name} runs "
        f"{scenario.node(name).scheme.name} whose scheduler cannot accept "
        "dynamically arriving flows"
        for name in sorted(churn_nodes)
        if scenario.node(name).scheme not in CHURN_SCHEMES
    ]


def book_hops(scenario, flows, hop_sigmas, *, sink=None, clock=None, managers=None):
    """Build every link's :class:`HopState` and book the routed ``flows`` on it.

    A hop's region is FIFO (eqs. 7-9) or WFQ (eqs. 5-6) by the churn
    spec's admission mode (``"auto"`` reads the node's scheme); under
    reclamation it also gets a pool, traced into ``sink`` before any
    reservation.  Each flow is then booked in order, hop by hop, where
    :func:`hop_decision` admits it; a refused hop is skipped.  Returns
    ``(hops, refusals)``: states keyed by ``(src, dst)``, and one
    ``(flow, state, sigma, decision)`` per refused hop.
    """
    churn = scenario.churn
    mode = "auto" if churn is None else churn.admission
    reclamation = churn is not None and churn.reclamation
    hops: dict[tuple[str, str], HopState] = {}
    for link in scenario.links:
        key = (link.src, link.dst)
        node = scenario.node(link.src)
        if mode == "fifo" or (mode == "auto" and node.scheme in CHURN_SCHEMES):
            admission = FIFOAdmission(link.rate, node.buffer_size)
        else:
            admission = WFQAdmission(link.rate, node.buffer_size)
        pool = None
        if reclamation:
            pool = BufferPool(node.buffer_size, node=link.label)
            pool.attach_trace(sink, clock)
        manager = None if managers is None else managers[key]
        hops[key] = HopState(
            link.src, link.label, admission, manager, node.buffer_size, link.rate, pool
        )

    # In scenario.flows order, so each pool's reservation sums match
    # build_scheme's threshold computation exactly.
    refusals = []
    for routed in flows:
        flow = routed.spec
        rho = flow.token_rate
        for key, sigma in hop_sigmas[flow.flow_id].items():
            state = hops[key]
            if state.pool is None:
                # Without a pool hop_decision is the region's check, and
                # admit is that check plus the booking.
                decision = state.admission.admit(sigma, rho)
            else:
                decision = hop_decision(state, sigma, rho)
                if decision:
                    state.admission.book(sigma, rho)
                    state.pool.reserve(
                        flow.flow_id,
                        flow_threshold(sigma, rho, state.buffer_size, state.rate),
                    )
            if not decision:
                refusals.append((flow, state, sigma, decision))
    return hops, refusals


@dataclass
class ChurnReport:
    """Outcome accounting for one churn run.

    ``per_node`` maps a node name to rejection counts keyed by the
    paper's two causes (``"bandwidth-limited"`` / ``"buffer-limited"``,
    plus ``"unknown"`` for unclassified refusals); a candidate is
    charged to the *first* hop that refused it.
    """

    arrivals: int = 0
    accepted: int = 0
    blocked_bandwidth: int = 0
    blocked_buffer: int = 0
    blocked_unknown: int = 0
    departures: int = 0
    active_at_end: int = 0
    per_node: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def blocked(self) -> int:
        return self.blocked_bandwidth + self.blocked_buffer + self.blocked_unknown

    @property
    def blocking_probability(self) -> float:
        """Fraction of arrivals refused somewhere on their route."""
        if self.arrivals == 0:
            return 0.0
        return self.blocked / self.arrivals

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`."""
        return {
            "arrivals": int(self.arrivals),
            "accepted": int(self.accepted),
            "blocked_bandwidth": int(self.blocked_bandwidth),
            "blocked_buffer": int(self.blocked_buffer),
            "blocked_unknown": int(self.blocked_unknown),
            "departures": int(self.departures),
            "active_at_end": int(self.active_at_end),
            "per_node": {
                node: {reason: int(count) for reason, count in sorted(reasons.items())}
                for node, reasons in sorted(self.per_node.items())
            },
        }

    @staticmethod
    def from_dict(raw: dict) -> "ChurnReport":
        return ChurnReport(
            arrivals=int(raw["arrivals"]),
            accepted=int(raw["accepted"]),
            blocked_bandwidth=int(raw["blocked_bandwidth"]),
            blocked_buffer=int(raw["blocked_buffer"]),
            blocked_unknown=int(raw["blocked_unknown"]),
            departures=int(raw["departures"]),
            active_at_end=int(raw["active_at_end"]),
            per_node={
                node: dict(reasons) for node, reasons in raw["per_node"].items()
            },
        )


class FlowChurnProcess:
    """Poisson flow arrivals, route-wide admission, exponential holding.

    Args:
        sim: the simulation engine.
        network: the built network (routes are installed into it as
            flows are accepted).
        scenario: the owning scenario (packet size, sim_time, churn spec).
        hops: per-link :class:`HopState`, keyed by ``(src, dst)``.
        seed_seq: the churn ``SeedSequence`` child; decision draws use a
            generator over it and each accepted flow's source spawns a
            fresh grandchild, so acceptance decisions and source sample
            paths are independent streams.
        first_flow_id: id of the first dynamic flow.
        monitor: optional
            :class:`~repro.obs.monitor.ConformanceMonitor`; accepted
            conformant flows are watched (with their route) and get
            per-hop occupancy checks against the *live* manager
            threshold, both torn down at departure — the guarantee ends
            with the reservation.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        scenario,
        hops: dict[tuple[str, str], HopState],
        seed_seq: SeedSequence,
        first_flow_id: int,
        *,
        monitor=None,
    ) -> None:
        spec = scenario.churn
        self.sim = sim
        self.network = network
        self.scenario = scenario
        self.spec = spec
        self.hops = hops
        self.report = ChurnReport()
        self.monitor = monitor
        self._seed_seq = seed_seq
        self._rng = Generator(seed_seq)
        self._next_id = first_flow_id
        self._active: dict[int, tuple[OnOffSource, tuple[tuple[str, str], ...], list[float]]] = {}
        sim.schedule_fast(
            self._rng.exponential(1.0 / spec.arrival_rate), self._arrival
        )

    # -- arrival ----------------------------------------------------------

    def _install(self, state: HopState, flow_id: int, sigma: float, rho: float) -> None:
        """Book one accepted flow at one hop.

        Without a pool: admit into the region and register the flow's
        Prop.-2 threshold.  With one (reclamation): book unconditionally
        (the pool already decided), reserve the base threshold in the
        pool, and rescale the survivors online.
        """
        base = flow_threshold(sigma, rho, state.buffer_size, state.rate)
        if state.pool is None:
            state.admission.admit(sigma, rho)
            if state.manages_thresholds:
                state.manager.reprovision(flow_id, base)
            return
        state.admission.book(sigma, rho)
        state.pool.reserve(flow_id, base)
        self._sync_thresholds(state)

    def _sync_thresholds(self, state: HopState) -> None:
        """Push the pool's footnote-5 rescale into the hop's manager.

        Only values that actually changed are reprovisioned, so the
        trace records transitions rather than a full dump per event.
        """
        if not state.manages_thresholds:
            return
        manager = state.manager
        for flow_id, value in state.pool.effective_thresholds().items():
            if manager.threshold(flow_id) != value:
                manager.reprovision(flow_id, value)

    def _arrival(self) -> None:
        if self.sim.now >= self.scenario.sim_time:
            return
        self.sim.schedule_fast(
            self._rng.exponential(1.0 / self.spec.arrival_rate), self._arrival
        )
        template = self.spec.templates[self._rng.integers(len(self.spec.templates))]
        route = self.spec.routes[self._rng.integers(len(self.spec.routes))]
        self.report.arrivals += 1

        hop_keys = tuple(zip(route, route[1:]))
        states = [self.hops[key] for key in hop_keys]
        sigmas = per_hop_sigma(
            template.bucket, template.token_rate, [s.delay_bound for s in states]
        )
        for state, sigma in zip(states, sigmas):
            decision = hop_decision(state, sigma, template.token_rate)
            if not decision:
                self._record_rejection(state.src, decision.reason)
                return

        flow_id = self._next_id
        self._next_id += 1
        self.report.accepted += 1
        for state, sigma in zip(states, sigmas):
            self._install(state, flow_id, sigma, template.token_rate)
        self.network.set_route(flow_id, list(route))
        if self.monitor is not None:
            if template.conformant:
                self.monitor.watch_flow(
                    flow_id,
                    shaped=True,
                    route=tuple(state.label for state in states),
                )
            for state in states:
                if state.enforces_thresholds:
                    _check_occupancy(
                        self.monitor, state.label, flow_id, state.manager
                    )

        source = _start_source(
            self.sim,
            self.network,
            self.scenario,
            template,
            flow_id,
            self._seed_seq.spawn(1)[0],
            start=self.sim.now,
        )
        self._active[flow_id] = (source, hop_keys, list(sigmas))
        holding = self._rng.exponential(self.spec.mean_holding)
        self.sim.schedule_fast(holding, self._departure, flow_id, template.token_rate)

    def _record_rejection(self, node: str, reason: Rejection | None) -> None:
        key = "unknown" if reason is None else reason.value
        if reason is Rejection.BANDWIDTH_LIMITED:
            self.report.blocked_bandwidth += 1
        elif reason is Rejection.BUFFER_LIMITED:
            self.report.blocked_buffer += 1
        else:
            self.report.blocked_unknown += 1
        node_counts = self.report.per_node.setdefault(node, {})
        node_counts[key] = node_counts.get(key, 0) + 1

    # -- departure --------------------------------------------------------

    def _departure(self, flow_id: int, rho: float) -> None:
        entry = self._active.pop(flow_id, None)
        if entry is None:
            return
        source, hop_keys, sigmas = entry
        source.stop()
        if self.monitor is not None:
            # The conformance guarantee ends with the reservation:
            # retiring withdraws the threshold while queued (and
            # shaper-held) packets drain, so the checks come down first.
            self.monitor.unwatch_flow(flow_id)
            self.monitor.drop_occupancy_checks(flow_id)
        for key, sigma in zip(hop_keys, sigmas):
            state = self.hops[key]
            state.admission.release(sigma, rho)
            if state.manages_thresholds:
                state.manager.retire(flow_id)
            if state.pool is not None:
                state.pool.retire(flow_id)
                self._sync_thresholds(state)
        self.report.departures += 1

    # -- finalisation -----------------------------------------------------

    @property
    def active_count(self) -> int:
        """Dynamic flows currently holding reservations."""
        return len(self._active)

    def finalize(self) -> ChurnReport:
        """Close the books after the run; returns the filled report."""
        self.report.active_at_end = len(self._active)
        return self.report
