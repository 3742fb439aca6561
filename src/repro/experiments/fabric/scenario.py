"""Declarative network scenarios: the fabric's describe stage.

A :class:`NetworkScenario` is the general form of an experiment: a set
of named nodes (each with its own scheme and buffer), directed links,
and flows pinned to static routes.  The classic single-port experiment
of :func:`~repro.experiments.runner.run_scenario` is the one-node
special case (:meth:`NetworkScenario.single_node`), which is what lets
the whole experiment layer — campaigns, caching, benchmarks — treat
"one port" and "a tandem of three congested hops" as the same kind of
object.

Scenarios are frozen and JSON-round-trippable (``to_dict`` /
``from_dict``), which is all a
:class:`~repro.experiments.campaign.ScenarioJob` needs to
content-address one: a campaign job *is* a scenario.

Optionally a scenario carries a :class:`ChurnSpec`: a Poisson process
of flow arrivals with exponential holding times, where each candidate
flow is admission-tested at *every* hop of its route (Section 2.3 of
the paper, applied per node) before any source is created.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError
from repro.experiments.schemes import DEFAULT_HEADROOM, Scheme
from repro.experiments.workloads import LINK_RATE, PACKET_SIZE
from repro.net.topology import per_hop_sigma
from repro.traffic.profiles import FlowSpec

__all__ = [
    "NodeSpec",
    "LinkSpec",
    "RoutedFlow",
    "ChurnSpec",
    "NetworkScenario",
    "DYNAMIC_FLOW_BASE",
]

#: Flow ids at or above this value are reserved for dynamically created
#: (churn) flows; static flows must use smaller ids so the two
#: populations can never collide.
DYNAMIC_FLOW_BASE = 10_000


@dataclass(frozen=True)
class NodeSpec:
    """One forwarding element and the policy its egress ports run.

    Attributes:
        name: unique node name.
        scheme: scheduler/buffer-policy combination applied to every
            egress port of this node.  ``None`` is only valid for
            terminal nodes (no outgoing links).
        buffer_size: buffer ``B`` in bytes at each egress port; required
            when the node has outgoing links.
        headroom: ``H`` for the sharing schemes.
        groups: flow grouping for hybrid schemes.
    """

    name: str
    scheme: Scheme | None = None
    buffer_size: float | None = None
    headroom: float = DEFAULT_HEADROOM
    groups: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("node name must be non-empty")
        if self.scheme is not None and not isinstance(self.scheme, Scheme):
            raise ConfigurationError(
                f"node {self.name}: scheme must be a Scheme, got {self.scheme!r}"
            )
        # `not 0 < x < inf` refuses NaN too: it fails every comparison.
        if self.buffer_size is not None and not 0 < self.buffer_size < math.inf:
            raise ConfigurationError(
                f"node {self.name}: buffer size must be positive and finite, "
                f"got {self.buffer_size}"
            )
        if not -math.inf < self.headroom < math.inf:
            raise ConfigurationError(f"node {self.name}: headroom must be finite")
        if self.groups is not None:
            object.__setattr__(
                self, "groups", tuple(tuple(int(i) for i in g) for g in self.groups)
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scheme": None if self.scheme is None else self.scheme.name,
            "buffer_size": None if self.buffer_size is None else float(self.buffer_size),
            "headroom": float(self.headroom),
            "groups": None if self.groups is None else [list(g) for g in self.groups],
        }

    @staticmethod
    def from_dict(raw: dict) -> "NodeSpec":
        scheme_name = raw.get("scheme")
        groups = raw.get("groups")
        return NodeSpec(
            name=str(raw["name"]),
            scheme=None if scheme_name is None else Scheme.named(scheme_name),
            buffer_size=None
            if raw.get("buffer_size") is None
            else float(raw["buffer_size"]),
            headroom=float(raw.get("headroom", DEFAULT_HEADROOM)),
            groups=None if groups is None else tuple(tuple(g) for g in groups),
        )


@dataclass(frozen=True)
class LinkSpec:
    """A directed link ``src -> dst`` with a transmission rate."""

    src: str
    dst: str
    rate: float

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise ConfigurationError(
                f"link {self.src}->{self.dst}: rate must be positive and finite, got {self.rate}"
            )

    @property
    def label(self) -> str:
        return f"{self.src}->{self.dst}"

    def to_dict(self) -> dict:
        return {"src": self.src, "dst": self.dst, "rate": float(self.rate)}

    @staticmethod
    def from_dict(raw: dict) -> "LinkSpec":
        return LinkSpec(src=str(raw["src"]), dst=str(raw["dst"]), rate=float(raw["rate"]))


@dataclass(frozen=True)
class RoutedFlow:
    """A static flow pinned to a route (a node-name path)."""

    spec: FlowSpec
    route: tuple[str, ...]

    def __post_init__(self) -> None:
        route = tuple(self.route)
        object.__setattr__(self, "route", route)
        length = len(route)
        if length < 2:
            raise ConfigurationError(
                f"flow {self.spec.flow_id}: a route needs at least two nodes, "
                f"got {list(route)}"
            )
        if len(set(route)) != length:
            raise ConfigurationError(
                f"flow {self.spec.flow_id}: route contains a loop"
            )
        if self.spec.flow_id >= DYNAMIC_FLOW_BASE:
            raise ConfigurationError(
                f"static flow id {self.spec.flow_id} collides with the dynamic "
                f"range (>= {DYNAMIC_FLOW_BASE})"
            )

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(), "route": list(self.route)}

    @staticmethod
    def from_dict(raw: dict) -> "RoutedFlow":
        return RoutedFlow(
            spec=FlowSpec.from_dict(raw["spec"]), route=tuple(raw["route"])
        )


@dataclass(frozen=True)
class ChurnSpec:
    """Dynamic flow lifecycle: Poisson arrivals, exponential holding.

    Each arrival draws a template and a route (uniformly, from the churn
    stream), asks the admission control of *every* hop on the route
    whether the flow's ``(sigma, rho)`` reservation fits — with sigma
    inflated per hop for accumulated burstiness (see
    :func:`repro.net.topology.per_hop_sigma`) — and only then
    instantiates a source.  Departures release every hop and silence the
    source.

    Attributes:
        arrival_rate: mean flow arrivals per second (Poisson).
        mean_holding: mean flow lifetime in seconds (exponential).
        templates: candidate flow shapes; the ``flow_id`` field of a
            template is ignored (dynamic flows are numbered from
            :data:`DYNAMIC_FLOW_BASE`).
        routes: candidate routes, each a node-name path.
        admission: ``"auto"`` derives the admission region from each
            node's scheme (FIFO family -> eqs. 7-9, else eqs. 5-6);
            ``"fifo"`` / ``"wfq"`` force one region everywhere.
        reclamation: run the dynamic-provisioning pipeline: each hop
            keeps a live :class:`~repro.core.pool.BufferPool`, buffer
            admission tests against the pool instead of the static
            region, departures reclaim their reservation, and the
            surviving population's thresholds are rescaled online
            (footnote 5).  Off (the default) reproduces the static
            pre-booked behaviour byte for byte.
    """

    arrival_rate: float
    mean_holding: float
    templates: tuple[FlowSpec, ...]
    routes: tuple[tuple[str, ...], ...]
    admission: str = "auto"
    reclamation: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "templates", tuple(self.templates))
        object.__setattr__(
            self, "routes", tuple(tuple(route) for route in self.routes)
        )
        if not 0 < self.arrival_rate < math.inf:
            raise ConfigurationError(
                f"churn arrival rate must be positive and finite, got {self.arrival_rate}"
            )
        if not 0 < self.mean_holding < math.inf:
            raise ConfigurationError(
                f"churn mean holding time must be positive and finite, got {self.mean_holding}"
            )
        if not self.templates:
            raise ConfigurationError("churn needs at least one flow template")
        if not self.routes:
            raise ConfigurationError("churn needs at least one candidate route")
        for route in self.routes:
            if len(route) < 2:
                raise ConfigurationError(
                    f"churn route needs at least two nodes, got {list(route)}"
                )
            if len(set(route)) != len(route):
                raise ConfigurationError(f"churn route {list(route)} contains a loop")
        if self.admission not in ("auto", "fifo", "wfq"):
            raise ConfigurationError(
                f"admission must be 'auto', 'fifo' or 'wfq', got {self.admission!r}"
            )

    def to_dict(self) -> dict:
        return {
            "arrival_rate": float(self.arrival_rate),
            "mean_holding": float(self.mean_holding),
            "templates": [t.to_dict() for t in self.templates],
            "routes": [list(route) for route in self.routes],
            "admission": self.admission,
            "reclamation": bool(self.reclamation),
        }

    @staticmethod
    def from_dict(raw: dict) -> "ChurnSpec":
        return ChurnSpec(
            arrival_rate=float(raw["arrival_rate"]),
            mean_holding=float(raw["mean_holding"]),
            templates=tuple(FlowSpec.from_dict(t) for t in raw["templates"]),
            routes=tuple(tuple(route) for route in raw["routes"]),
            admission=str(raw.get("admission", "auto")),
            reclamation=bool(raw.get("reclamation", False)),
        )


@dataclass(frozen=True)
class NetworkScenario:
    """A complete declarative experiment over a network fabric.

    Attributes:
        nodes: the forwarding elements (order defines nothing; names do).
        links: directed links between named nodes.
        flows: the static flow population with routes.
        churn: optional dynamic flow lifecycle.
        sim_time: total simulated seconds.
        warmup: measurement start; ``None`` means 10% of ``sim_time``.
        seed: root seed, a non-negative integer; static flows draw child
            streams in declaration order, churn one extra child after them
            (so adding churn never perturbs the static flows' sample paths).
        packet_size: bytes per packet.
        delay_histograms: record per-flow delay histograms per hop and
            end-to-end.
        max_events: optional event budget for the run.
    """

    nodes: tuple[NodeSpec, ...]
    links: tuple[LinkSpec, ...]
    flows: tuple[RoutedFlow, ...]
    churn: ChurnSpec | None = None
    sim_time: float = 20.0
    warmup: float | None = None
    seed: int = 0
    packet_size: float = PACKET_SIZE
    delay_histograms: bool = False
    max_events: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "flows", tuple(self.flows))
        if not 0 < self.sim_time < math.inf:
            raise ConfigurationError(f"sim_time must be positive and finite, got {self.sim_time}")
        if not 0 < self.packet_size < math.inf:
            raise ConfigurationError(f"packet_size must be positive and finite, got {self.packet_size}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.warmup is not None and not 0 <= self.warmup < self.sim_time:
            raise ConfigurationError(
                f"need 0 <= warmup < sim_time, got {self.warmup}"
            )
        if self.max_events is not None and self.max_events <= 0:
            raise ConfigurationError(
                f"max_events must be positive, got {self.max_events}"
            )
        if not self.nodes:
            raise ConfigurationError("a scenario needs at least one node")
        if not self.links:
            raise ConfigurationError("a scenario needs at least one link")
        if not self.flows and self.churn is None:
            raise ConfigurationError("a scenario needs flows or churn")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names in {names}")
        by_name = {node.name: node for node in self.nodes}
        seen_links = set()
        for link in self.links:
            if link.src not in by_name or link.dst not in by_name:
                raise ConfigurationError(f"unknown endpoint in link {link.label}")
            if (link.src, link.dst) in seen_links:
                raise ConfigurationError(f"duplicate link {link.label}")
            seen_links.add((link.src, link.dst))
            node = by_name[link.src]
            if node.scheme is None or node.buffer_size is None:
                raise ConfigurationError(
                    f"node {link.src} has outgoing links but no scheme/buffer"
                )
        flow_ids = [flow.spec.flow_id for flow in self.flows]
        if len(set(flow_ids)) != len(flow_ids):
            raise ConfigurationError(f"duplicate flow ids in {sorted(flow_ids)}")
        for flow in self.flows:
            self._check_route(flow.route, seen_links, f"flow {flow.spec.flow_id}")
        if self.churn is not None:
            for route in self.churn.routes:
                self._check_route(route, seen_links, "churn")
                for name in route:
                    if name not in by_name:
                        raise ConfigurationError(f"churn route uses unknown node {name}")
        templates = () if self.churn is None else self.churn.templates
        shapes = [(f"flow {flow.spec.flow_id}", flow.spec) for flow in self.flows]
        for who, spec in shapes + [(f"churn template {i}", t) for i, t in enumerate(templates)]:
            size = self.packet_size  # the source, and a shaper, refuse less mid-run
            if spec.mean_burst < size or spec.conformant and spec.bucket < size:
                raise ConfigurationError(
                    f"{who}: mean burst {spec.mean_burst} or bucket {spec.bucket} under {size} B"
                )

    @staticmethod
    def _check_route(route: Sequence[str], links: set, who: str) -> None:
        for src, dst in zip(route, route[1:]):
            if (src, dst) not in links:
                raise ConfigurationError(f"{who}: route uses missing link {src}->{dst}")

    # -- shape helpers ----------------------------------------------------

    @property
    def is_single_port(self) -> bool:
        """One link, every flow routed over it, no churn.

        This is the shape :func:`~repro.experiments.runner.run_scenario`
        produces: the paper's single output port.  The fabric runs it
        like any other scenario, with an unlabelled hop and no delivery
        sink behind its only link.
        """
        if self.churn is not None or len(self.links) != 1:
            return False
        link = self.links[0]
        path = (link.src, link.dst)
        return all(flow.route == path for flow in self.flows)

    @property
    def conformant_ids(self) -> tuple[int, ...]:
        """The static flows shaped to their reservation, in declaration order."""
        return tuple(
            routed.spec.flow_id for routed in self.flows if routed.spec.conformant
        )

    def node(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigurationError(f"no node named {name!r}")

    @property
    def effective_warmup(self) -> float:
        return 0.1 * self.sim_time if self.warmup is None else self.warmup

    def hop_sigmas(self) -> dict[int, dict[tuple[str, str], float]]:
        """``flow id -> {(src, dst): sigma at that hop's entry}``, statics only.

        The burst envelope inflates by ``rho * B / R`` across every
        upstream hop (:func:`~repro.net.topology.per_hop_sigma`); the
        fabric sizes thresholds from these values and the invariant
        auditor books admission regions with them.
        """
        link_delay = {
            (link.src, link.dst): self.node(link.src).buffer_size / link.rate
            for link in self.links
        }
        sigmas: dict[int, dict[tuple[str, str], float]] = {}
        for routed in self.flows:
            hops = list(zip(routed.route, routed.route[1:]))
            values = per_hop_sigma(
                routed.spec.bucket,
                routed.spec.token_rate,
                [link_delay[hop] for hop in hops],
            )
            sigmas[routed.spec.flow_id] = dict(zip(hops, values))
        return sigmas

    # -- constructors -----------------------------------------------------

    @staticmethod
    def single_node(
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
    ) -> "NetworkScenario":
        """The classic experiment as a two-node, one-link scenario.

        Signature mirrors :func:`~repro.experiments.runner.run_scenario`,
        which delegates here.
        """
        if not flows:
            raise ConfigurationError("a scenario needs at least one flow")
        source = NodeSpec(
            name="n0",
            scheme=scheme,
            buffer_size=buffer_size,
            headroom=headroom,
            groups=groups,
        )
        terminal = NodeSpec(name="n1")
        return NetworkScenario(
            nodes=(source, terminal),
            links=(LinkSpec("n0", "n1", link_rate),),
            flows=tuple(RoutedFlow(spec=flow, route=("n0", "n1")) for flow in flows),
            sim_time=sim_time,
            warmup=warmup,
            seed=seed,
            packet_size=packet_size,
            delay_histograms=delay_histograms,
            max_events=max_events,
        )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`."""
        return {
            "nodes": [node.to_dict() for node in self.nodes],
            "links": [link.to_dict() for link in self.links],
            "flows": [flow.to_dict() for flow in self.flows],
            "churn": None if self.churn is None else self.churn.to_dict(),
            "sim_time": float(self.sim_time),
            "warmup": None if self.warmup is None else float(self.warmup),
            "seed": self.seed,
            "packet_size": float(self.packet_size),
            "delay_histograms": bool(self.delay_histograms),
            "max_events": None if self.max_events is None else int(self.max_events),
        }

    @staticmethod
    def from_dict(raw: dict) -> "NetworkScenario":
        """Rebuild a scenario from :meth:`to_dict` output."""
        churn = raw.get("churn")
        return NetworkScenario(
            nodes=tuple(NodeSpec.from_dict(n) for n in raw["nodes"]),
            links=tuple(LinkSpec.from_dict(l) for l in raw["links"]),
            flows=tuple(RoutedFlow.from_dict(f) for f in raw["flows"]),
            churn=None if churn is None else ChurnSpec.from_dict(churn),
            sim_time=float(raw["sim_time"]),
            warmup=None if raw.get("warmup") is None else float(raw["warmup"]),
            seed=raw["seed"],
            packet_size=float(raw["packet_size"]),
            delay_histograms=bool(raw["delay_histograms"]),
            max_events=None if raw.get("max_events") is None else int(raw["max_events"]),
        )
