"""Multi-node topologies: routed flows across buffer-managed links.

The paper analyses one output link; in a deployment the mechanism runs
at *every* node ("per node" provisioning, cf. its reference [4]).  This
module wires several :class:`~repro.sim.port.OutputPort` instances into
a network with static per-flow routes so end-to-end behaviour — e.g. a
conformant flow crossing three congested hops, each protecting it only
with thresholds — can be studied.

Model:

* a :class:`Node` holds a routing table ``flow_id -> egress port`` (one
  of its outgoing links' ports, ``None`` where the flow leaves);
* packets entering a node are immediately offered to the egress port for
  their flow (forwarding is instantaneous; only links cost time);
* at the route's last node the packet is *delivered*: end-to-end
  statistics land in :class:`DeliverySink`.

Note on envelopes: a ``(sigma, rho)`` flow does not stay
``(sigma, rho)``-constrained after crossing a FIFO hop — multiplexing
adds jitter.  Per network calculus its burstiness grows by at most
``rho * D`` per hop, where ``D`` is the hop's worst-case delay, so
downstream thresholds must budget ``sigma_i + rho_i * sum(D_hops)``;
:func:`per_hop_sigma` computes that inflation and the tests verify it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.metrics.collector import FlowStats, StatsCollector
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort

__all__ = ["DeliverySink", "Node", "Network", "per_hop_sigma"]


def per_hop_sigma(sigma: float, rho: float, hop_delays: list[float]) -> list[float]:
    """Burst envelope of a flow at the entry of each hop along a path.

    Hop 0 sees the original ``sigma``; after traversing a hop with
    worst-case delay ``D`` the burst grows by at most ``rho * D``
    (network-calculus output-burstiness bound for a FIFO element with
    bounded delay).

    Args:
        sigma: source burst size in bytes.
        rho: sustained rate in bytes/second.
        hop_delays: worst-case delay of each hop, seconds (typically
            ``B_hop / R_hop``).

    Returns:
        ``len(hop_delays)`` sigmas: the envelope at each hop's entry.
    """
    if sigma < 0 or rho < 0:
        raise ConfigurationError(f"sigma and rho must be non-negative, got ({sigma}, {rho})")
    sigmas = []
    current = sigma
    for delay in hop_delays:
        if delay < 0:
            raise ConfigurationError(f"hop delays must be non-negative, got {delay}")
        sigmas.append(current)
        current += rho * delay
    return sigmas


@dataclass
class DeliverySink:
    """End-to-end statistics for packets leaving the network.

    One :class:`~repro.metrics.collector.FlowStats` per delivered flow;
    ``packets``, ``bytes``, ``delay_sum`` and ``delay_max`` read it.

    Args:
        collector: optional :class:`StatsCollector` fed one ``on_depart``
            per delivered packet with the *end-to-end* delay (creation to
            delivery), so its delay histograms and warmup window apply to
            whole-path latency rather than a single hop.
    """

    flows: dict[int, FlowStats] = field(default_factory=dict)
    collector: StatsCollector | None = None

    def record(self, packet: Packet, now: float) -> None:
        flow_id = packet.flow_id
        try:
            stats = self.flows[flow_id]
        except KeyError:
            stats = self.flows[flow_id] = FlowStats()
        size = packet.size
        delay = now - packet.created
        stats.departed_packets += 1
        stats.departed_bytes += size
        stats.delay_sum += delay
        if delay > stats.delay_max:
            stats.delay_max = delay
        if self.collector is not None:
            self.collector.on_depart(flow_id, size, delay, now)

    #: ``{flow: value}`` views; a flow only ever delivered at zero delay
    #: has no ``delay_max`` entry.
    packets = property(lambda self: {i: s.departed_packets for i, s in self.flows.items()})
    bytes = property(lambda self: {i: s.departed_bytes for i, s in self.flows.items()})
    delay_sum = property(lambda self: {i: s.delay_sum for i, s in self.flows.items()})
    delay_max = property(
        lambda self: {i: s.delay_max for i, s in self.flows.items() if s.delay_max > 0.0}
    )

    def mean_delay(self, flow_id: int) -> float:
        stats = self.flows.get(flow_id)
        return 0.0 if stats is None else stats.mean_delay

    def throughput(self, flow_id: int, duration: float) -> float:
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        stats = self.flows.get(flow_id)
        return 0.0 if stats is None else stats.departed_bytes / duration


class Node:
    """A forwarding element: a routing table onto its links' output ports."""

    def __init__(self, name: str, network: "Network"):
        self.name = name
        self.network = network
        #: flow id -> egress port, or None at the route's last node;
        #: resolved by :meth:`Network.set_route`.
        self.next_hop: dict[int, OutputPort | None] = {}

    def receive(self, packet: Packet) -> None:
        """Forward a packet: egress port for transit, sink at the end."""
        try:
            port = self.next_hop[packet.flow_id]
        except KeyError:
            raise ConfigurationError(
                f"node {self.name}: no route for flow {packet.flow_id}"
            ) from None
        if port is None:
            self.network.sink.record(packet, self.network.sim.now)
        else:
            port.receive(packet)


class Network:
    """A set of nodes, directed links and static per-flow routes.

    Usage::

        net = Network(sim)
        net.add_node("a"); net.add_node("b"); net.add_node("c")
        net.add_link("a", "b", rate, FIFOScheduler(), manager_ab)
        net.add_link("b", "c", rate, FIFOScheduler(), manager_bc)
        net.set_route(flow_id=1, path=["a", "b", "c"])
        entry = net.entry(1)          # the a->b port: plug sources into this
        ...
        net.sink.mean_delay(1)        # end-to-end results
    """

    def __init__(self, sim: Simulator, sink: DeliverySink | None = None):
        self.sim = sim
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], OutputPort] = {}
        self.sink = DeliverySink() if sink is None else sink
        self._entries: dict[int, OutputPort | Node] = {}

    def add_node(self, name: str) -> Node:
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node name {name!r}")
        node = Node(name, self)
        self.nodes[name] = node
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        rate: float,
        scheduler,
        manager,
        collector: StatsCollector | None = None,
        *,
        label: str | None = None,
        deliver: bool = True,
    ) -> OutputPort:
        """Create a directed link; returns its output port.

        ``label`` is what the port stamps on trace events and metrics
        (default ``"src->dst"``; ``""`` leaves both unlabelled).  With
        ``deliver=False`` transmitted packets are not handed to ``dst``:
        for a link past which nothing forwards or counts them.
        """
        if src not in self.nodes or dst not in self.nodes:
            raise ConfigurationError(f"unknown endpoint in link {src}->{dst}")
        if (src, dst) in self.links:
            raise ConfigurationError(f"duplicate link {src}->{dst}")
        port = OutputPort(
            self.sim, rate, scheduler, manager,
            collector=collector,
            downstream=self.nodes[dst] if deliver else None,
            label=f"{src}->{dst}" if label is None else label,
        )
        self.links[(src, dst)] = port
        return port

    def set_route(self, flow_id: int, path: list[str]) -> None:
        """Install a loop-free path (list of node names) for a flow."""
        if len(path) < 1:
            raise ConfigurationError("route must contain at least one node")
        if len(set(path)) != len(path):
            raise ConfigurationError(f"route for flow {flow_id} contains a loop")
        for src, dst in zip(path, path[1:]):
            if (src, dst) not in self.links:
                raise ConfigurationError(f"route uses missing link {src}->{dst}")
        for src, dst in zip(path, path[1:]):
            self.nodes[src].next_hop[flow_id] = self.links[(src, dst)]
        self.nodes[path[-1]].next_hop[flow_id] = None
        self._entries[flow_id] = (
            self.links[(path[0], path[1])] if len(path) > 1 else self.nodes[path[0]]
        )

    def attach_trace(self, sink) -> None:
        """Wire one trace sink through every link in the network.

        Each port stamps its label on the events it emits, so a single
        merged event stream stays attributable per hop.  Pass ``None`` to
        detach everywhere.
        """
        self.sim.attach_trace(sink)
        for port in self.links.values():
            port.attach_trace(sink)

    def entry(self, flow_id: int) -> OutputPort | Node:
        """Where a routed flow enters: plug its source into this.

        The first-hop port, so sources skip the per-packet routing
        lookup at ingress; the node itself for a one-node route.
        """
        if flow_id not in self._entries:
            raise ConfigurationError(f"no route installed for flow {flow_id}")
        return self._entries[flow_id]

    def port(self, src: str, dst: str) -> OutputPort:
        """Look up a link's output port."""
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise ConfigurationError(f"no link {src}->{dst}") from None
