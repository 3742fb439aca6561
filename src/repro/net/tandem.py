"""Tandem (linear) topologies: the canonical multi-hop validation rig.

A tandem of ``n`` hops is the standard setting for end-to-end QoS
analysis: the flow of interest traverses every hop while independent
cross-traffic enters and leaves at each hop, congesting it locally.
:func:`build_tandem` assembles that topology of FIFO hops from per-hop
buffer managers, returning the network plus the conventional node names
``n0 -> n1 -> ... -> n<k>``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.metrics.collector import StatsCollector
from repro.net.topology import Network
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator

__all__ = ["build_tandem"]


def build_tandem(
    sim: Simulator,
    rates: Sequence[float],
    manager_factories: Sequence[Callable[[], object]],
    collectors: Sequence[StatsCollector],
) -> tuple[Network, list[str]]:
    """Build an ``len(rates)``-hop linear network.

    Args:
        sim: simulation engine.
        rates: link rate (bytes/second) for each hop, in path order.
        manager_factories: one buffer-manager factory per hop.
        collectors: one statistics sink per hop (each carries its own
            warmup).

    Returns:
        ``(network, node_names)`` where node_names has ``len(rates)+1``
        entries, ``n0`` the ingress.
    """
    if not rates:
        raise ConfigurationError("a tandem needs at least one hop")
    if len(manager_factories) != len(rates):
        raise ConfigurationError(
            f"got {len(manager_factories)} managers for {len(rates)} hops"
        )
    if len(collectors) != len(rates):
        raise ConfigurationError(
            f"got {len(collectors)} collectors for {len(rates)} hops"
        )

    network = Network(sim)
    names = [f"n{i}" for i in range(len(rates) + 1)]
    for name in names:
        network.add_node(name)
    for index, rate in enumerate(rates):
        network.add_link(
            names[index],
            names[index + 1],
            rate,
            FIFOScheduler(),
            manager_factories[index](),
            collector=collectors[index],
        )
    return network, names
