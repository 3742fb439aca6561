"""Scheduler interface.

A scheduler owns the queued packets of an output port and decides the
transmission order.  It does **not** decide admission — that is the buffer
manager's job (see :mod:`repro.core`) — and it does not model transmission
time, which the port handles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Mapping

from repro.errors import ConfigurationError
from repro.obs.events import EnqueueEvent
from repro.sim.packet import Packet

__all__ = ["Scheduler", "FlowQueue", "FinishTagScheduler"]


class Scheduler(ABC):
    """Order of service for packets already admitted to the buffer.

    Schedulers are the emission point for
    :class:`~repro.obs.events.EnqueueEvent`: every admitted packet passes
    through exactly one ``enqueue`` call, so the trace's enqueue count is
    the admission count.  ``_sink`` is ``None`` until a trace is attached,
    which keeps untraced instances on the fast path — concrete ``enqueue``
    implementations guard emission with one ``is not None`` check.
    """

    __slots__ = ("_sink", "_clock", "_node")

    def __init__(self) -> None:
        #: Trace sink and the clock that stamps its events; None means
        #: "tracing disabled".
        self._sink = None
        self._clock = None
        #: Node label stamped on emitted events ('' for single-port runs).
        self._node = ""

    def attach_trace(self, sink, clock, node: str = "") -> None:
        """Emit enqueue events into ``sink``, stamped via ``clock``.

        Pass ``sink=None`` to detach.  ``node`` labels emitted events
        with the owning hop in multi-node runs.  ``clock`` stamps the
        events and nothing else: a discipline that reads time for its
        own rule (WFQ's virtual time, RPQ's rotation) reads ``now`` off
        the simulator it was constructed with, so attaching or detaching
        a trace never changes the service order.
        """
        if sink is not None and clock is None:
            raise ConfigurationError("attach_trace needs a clock with its sink")
        self._sink = sink
        self._clock = clock
        self._node = node

    def _trace_enqueue(self, packet: Packet, backlog: int) -> None:
        """Emit the packet's EnqueueEvent; callers test ``_sink`` first."""
        self._sink.emit(
            EnqueueEvent(self._clock(), packet.flow_id, packet.size, backlog, self._node)
        )

    @abstractmethod
    def enqueue(self, packet: Packet) -> None:
        """Add an admitted packet to the queue."""

    @abstractmethod
    def dequeue(self) -> Packet | None:
        """Remove and return the next packet to transmit, or ``None``."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of packets currently queued."""

    @property
    def backlog_bytes(self) -> float:
        """Total bytes queued; subclasses track this incrementally."""
        raise NotImplementedError


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

    __slots__ = ("_flows", "_hol", "_vtime", "_epoch", "_count", "_bytes")

    #: Discipline name used in error messages.
    NAME = ""

    def __init__(self, weights: Mapping[int, float]) -> None:
        if not weights:
            raise ConfigurationError(f"{self.NAME} requires at least one flow weight")
        super().__init__()
        self._flows: dict[int, FlowQueue] = {}
        for key, weight in weights.items():
            if weight <= 0:
                raise ConfigurationError(f"weight for key {key} must be positive, got {weight}")
            self._flows[key] = FlowQueue(float(weight))
        self._hol: list[tuple[float, int, FlowQueue, Packet]] = []
        self._vtime = 0.0
        self._epoch = 0  # busy periods completed
        self._count = 0
        self._bytes = 0.0

    def __len__(self) -> int:
        return self._count

    @property
    def backlog_bytes(self) -> float:
        return self._bytes

    def queue_length(self, key: int) -> int:
        """Number of packets queued under the given scheduling key."""
        return len(self._flows[key].queue)
