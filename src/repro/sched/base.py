"""Scheduler interface.

A scheduler owns the queued packets of an output port and decides the
transmission order.  It does **not** decide admission — that is the buffer
manager's job (see :mod:`repro.core`) — and it does not model transmission
time, which the port handles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.obs.events import EnqueueEvent
from repro.sim.packet import Packet

__all__ = ["Scheduler"]


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
        #: Trace sink and clock; None means "tracing disabled".
        self._sink = None
        self._clock = None
        #: Node label stamped on emitted events ('' for single-port runs).
        self._node = ""

    def attach_trace(self, sink, clock, node: str = "") -> None:
        """Emit enqueue events into ``sink``, stamped via ``clock``.

        Pass ``sink=None`` to detach.  ``node`` labels emitted events
        with the owning hop in multi-node runs.  Composite schedulers
        (e.g. :class:`~repro.sched.hybrid.HybridScheduler`) attach only
        their outer layer, so a packet is traced once per port, not once
        per wrapped queue.
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
