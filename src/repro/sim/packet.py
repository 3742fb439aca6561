"""Packet representation.

Packets are plain slotted objects; millions of them are created per
experiment so construction cost matters more than convenience methods.
Every packet is a fresh object owned by whoever holds the last
reference — there is no pool to return it to.
"""

from __future__ import annotations

import itertools

__all__ = ["Packet"]

_packet_ids = itertools.count()


class Packet:
    """A single packet travelling from a source to an output port.

    Attributes:
        flow_id: integer id of the owning flow.
        size: length in bytes.
        created: simulation time at which the source emitted the packet.
        enqueued: time the packet was admitted to the port buffer
            (set by the port; ``None`` until then).
        seq: globally unique monotonically increasing id, used for stable
            tie-breaking in schedulers.
    """

    __slots__ = ("flow_id", "size", "created", "enqueued", "seq")

    def __init__(self, flow_id: int, size: float, created: float):
        self.flow_id = flow_id
        self.size = size
        self.created = created
        self.enqueued: float | None = None
        self.seq = next(_packet_ids)

    @classmethod
    def acquire(cls, flow_id: int, size: float, created: float) -> "Packet":
        """Alias of the constructor, kept for callers of the removed pool."""
        return cls(flow_id, size, created)

    def __repr__(self) -> str:
        return f"Packet(flow={self.flow_id}, size={self.size}, t={self.created:.6f})"
