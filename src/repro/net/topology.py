"""Multi-node topologies: routed flows across buffer-managed links.

The paper analyses one output link; in a deployment the mechanism runs
at *every* node ("per node" provisioning, cf. its reference [4]).  This
module wires several :class:`~repro.sim.port.OutputPort` instances into
a network with static per-flow routes so end-to-end behaviour — e.g. a
conformant flow crossing three congested hops, each protecting it only
with thresholds — can be studied.

Model:

* a node's routing table maps ``flow_id`` to the next hop's ``receive``
  (its egress port's, the :class:`DeliverySink`'s where the flow leaves);
* every link into the node holds that table and hands a packet on with
  one subscript (forwarding is instantaneous; only links cost time);
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

__all__ = ["DeliverySink", "Network", "per_hop_sigma"]


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

    One :class:`~repro.metrics.collector.FlowStats` per delivered flow
    in ``flows``: departed packets and bytes, delay sum and maximum.

    Args:
        collector: optional :class:`StatsCollector` fed one ``on_depart``
            per delivered packet with the *end-to-end* delay (creation to
            delivery), so its delay histograms and warmup window apply to
            whole-path latency rather than a single hop.
    """

    flows: dict[int, FlowStats] = field(default_factory=dict)
    collector: StatsCollector | None = None
    #: The clock that stamps a delivery: set by the Network, not by a caller.
    sim: Simulator | None = field(default=None, init=False, repr=False, compare=False)

    def receive(self, packet: Packet) -> None:
        now = self.sim.now
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


class _Routes(dict):
    """A node's routing table: flow id -> the next hop's ``receive``."""

    def __init__(self, node: str) -> None:
        self.node = node

    def __missing__(self, flow_id: int):
        raise ConfigurationError(f"node {self.node}: no route for flow {flow_id}")


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
        net.sink.flows[1].mean_delay  # end-to-end results
    """

    def __init__(self, sim: Simulator, sink: DeliverySink | None = None):
        self.sim = sim
        self.nodes: dict[str, _Routes] = {}
        self.links: dict[tuple[str, str], OutputPort] = {}
        self.sink = DeliverySink() if sink is None else sink
        self.sink.sim = sim
        self._entries: dict[int, OutputPort | DeliverySink] = {}

    def add_node(self, name: str) -> None:
        if name in self.nodes:
            raise ConfigurationError(f"duplicate node name {name!r}")
        self.nodes[name] = _Routes(name)

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
        ``deliver=False`` the port has no routing table of ``dst``'s: for
        a link past which nothing forwards or counts its packets.
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
            self.nodes[src][flow_id] = self.links[(src, dst)].receive
        self.nodes[path[-1]][flow_id] = self.sink.receive
        self._entries[flow_id] = (
            self.links[(path[0], path[1])] if len(path) > 1 else self.sink
        )

    def attach_trace(self, sink) -> None:
        """Wire one trace sink through every link in the network.

        Each port stamps its label on the events it emits, so a single
        merged event stream stays attributable per hop.  Pass ``None`` to
        detach everywhere.
        """
        for port in self.links.values():
            port.attach_trace(sink)

    def entry(self, flow_id: int) -> OutputPort | DeliverySink:
        """Where a routed flow enters: plug its source into this.

        The first-hop port, so sources skip the per-packet routing
        lookup at ingress; the delivery sink for a one-node route.
        """
        if flow_id not in self._entries:
            raise ConfigurationError(f"no route installed for flow {flow_id}")
        return self._entries[flow_id]

