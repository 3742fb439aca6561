"""Scheduler interface.

A scheduler owns the queued packets of an output port and decides the
transmission order.  It does **not** decide admission — that is the buffer
manager's job (see :mod:`repro.core`) — and it does not model transmission
time, which the port handles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from math import inf
from typing import Mapping

from repro.errors import ConfigurationError
from repro.sim.packet import Packet

__all__ = ["Scheduler", "FlowQueue", "FinishTagScheduler"]


class Scheduler(ABC):
    """Order of service for packets already admitted to the buffer.

    A scheduler emits no trace events: the output port that owns it emits
    the :class:`~repro.obs.events.EnqueueEvent` of every packet it hands
    to ``enqueue``, so a discipline's body is the same traced or not.
    """

    __slots__ = ()

    @abstractmethod
    def enqueue(self, packet: Packet) -> None:
        """Add an admitted packet to the queue."""

    @abstractmethod
    def dequeue(self) -> Packet | None:
        """Remove and return the next packet to transmit, or ``None``."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of packets currently queued."""


class FlowQueue:
    """One scheduling key's FIFO queue and the finish tag it last issued."""

    __slots__ = ("weight", "queue", "last_finish", "epoch")

    def __init__(self, weight: float):
        self.weight = weight
        #: ``(finish, seq, self, packet)`` entries in arrival order, built
        #: once at ``enqueue``; the head one is the key's only entry in
        #: the scheduler's head-of-line heap, and service finds the queue
        #: in it without a flow-table lookup.
        self.queue: deque[tuple[float, int, FlowQueue, Packet]] = deque()
        self.last_finish = 0.0
        #: Busy period ``last_finish`` belongs to; a stale one reads as 0.
        self.epoch = 0


class FinishTagScheduler(Scheduler):
    """What the sorted disciplines share; each adds its virtual-clock rule.

    WFQ and SCFQ stamp a packet ``F = max(V, F_prev) + L / w`` and serve
    the smallest stamp.  A key's packets are stamped in increasing order,
    so only its head-of-line entry competes: the heap holds one entry per
    *backlogged key*, never one per packet, and a packet costs
    ``O(log keys)``.  ``(finish, seq)`` is a total order (``seq`` is
    unique), so service order does not depend on heap layout, and the
    :class:`FlowQueue` an entry carries third is never compared.  When the
    last packet leaves, the busy period ends: virtual time restarts at 0
    and ``_epoch`` moves on, which lapses every key's ``last_finish``
    without an ``O(keys)`` walk per drain.

    ``enqueue`` and ``dequeue`` stay one flat body per discipline — the
    per-packet path is the cost the paper compares against.
    """

    __slots__ = ("_flows", "_hol", "_vtime", "_epoch", "_count")

    #: Discipline name used in error messages.
    NAME = ""

    def __init__(self, weights: Mapping[int, float]) -> None:
        if not weights:
            raise ConfigurationError(f"{self.NAME} requires at least one flow weight")
        self._flows: dict[int, FlowQueue] = {}
        for key, weight in weights.items():
            # A NaN weight would make finish tags compare false both
            # ways, leaving service order to the heap layout.
            if not 0.0 < weight < inf:
                raise ConfigurationError(
                    f"weight for key {key} must be positive and finite, got {weight}"
                )
            self._flows[key] = FlowQueue(float(weight))
        self._hol: list[tuple[float, int, FlowQueue, Packet]] = []
        self._vtime = 0.0
        self._epoch = 0  # busy periods completed
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def queue_length(self, key: int) -> int:
        """Number of packets queued under the given scheduling key."""
        return len(self._flows[key].queue)
