"""Multi-node topologies: routed flows over buffer-managed links."""

from repro.net.tandem import build_tandem
from repro.net.topology import DeliverySink, Network, per_hop_sigma

__all__ = ["Network", "DeliverySink", "build_tandem", "per_hop_sigma"]
