"""Multi-node topologies: routed flows across buffer-managed links.

The paper analyses one output link; in a deployment the mechanism runs
at *every* node ("per node" provisioning, cf. its reference [4]).  This
module wires several :class:`~repro.sim.port.OutputPort` instances into
a network with static per-flow routes so end-to-end behaviour — e.g. a
conformant flow crossing three congested hops, each protecting it only
with thresholds — can be studied.

Model:

* a :class:`Node` holds one output port per outgoing link and a routing
  table ``flow_id -> next node``;
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
from repro.metrics.collector import StatsCollector
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

    Args:
        collector: optional :class:`StatsCollector` fed one ``on_depart``
            per delivered packet with the *end-to-end* delay (creation to
            delivery), so its delay histograms and warmup window apply to
            whole-path latency rather than a single hop.
    """

    packets: dict[int, int] = field(default_factory=dict)
    bytes: dict[int, float] = field(default_factory=dict)
    delay_sum: dict[int, float] = field(default_factory=dict)
    delay_max: dict[int, float] = field(default_factory=dict)
    collector: StatsCollector | None = None

    def record(self, packet: Packet, now: float) -> None:
        flow_id = packet.flow_id
        self.packets[flow_id] = self.packets.get(flow_id, 0) + 1
        self.bytes[flow_id] = self.bytes.get(flow_id, 0.0) + packet.size
        delay = now - packet.created
        self.delay_sum[flow_id] = self.delay_sum.get(flow_id, 0.0) + delay
        if delay > self.delay_max.get(flow_id, 0.0):
            self.delay_max[flow_id] = delay
        if self.collector is not None:
            self.collector.on_depart(flow_id, packet.size, delay, now)

    def mean_delay(self, flow_id: int) -> float:
        count = self.packets.get(flow_id, 0)
        return self.delay_sum.get(flow_id, 0.0) / count if count else 0.0

    def throughput(self, flow_id: int, duration: float) -> float:
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        return self.bytes.get(flow_id, 0.0) / duration


class Node:
    """A forwarding element: routing table plus per-link output ports."""

    def __init__(self, name: str, network: "Network"):
        self.name = name
        self.network = network
        self.ports: dict[str, OutputPort] = {}
        self.next_hop: dict[int, str | None] = {}

    def receive(self, packet: Packet) -> None:
        """Forward a packet: egress port for transit, sink at the end."""
        if packet.flow_id not in self.next_hop:
            raise ConfigurationError(
                f"node {self.name}: no route for flow {packet.flow_id}"
            )
        destination = self.next_hop[packet.flow_id]
        if destination is None:
            self.network.sink.record(packet, self.network.sim.now)
            return
        port = self.ports.get(destination)
        if port is None:
            raise ConfigurationError(
                f"node {self.name}: no link towards {destination}"
            )
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
        self.nodes[src].ports[dst] = port
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
        for index, name in enumerate(path):
            next_name = path[index + 1] if index + 1 < len(path) else None
            self.nodes[name].next_hop[flow_id] = next_name
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
