"""Output port: buffer manager + scheduler + transmission link.

The port is the meeting point of the paper's two mechanisms:

* on packet arrival it consults the **buffer manager** (admission), and
* when the link is free it asks the **scheduler** for the next packet and
  models its transmission time ``size / rate``.

Any object with ``try_admit`` / ``on_depart`` works as a manager (both
:class:`repro.core.occupancy.BufferManager` subclasses and the composite
:class:`repro.core.hybrid.HybridBufferManager`), and any
:class:`repro.sched.base.Scheduler` works as a scheduler, so the four
scheme combinations of Section 3 — and the hybrid system of Section 4 —
are all instances of this one class.
"""

from __future__ import annotations

from math import inf, log
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.metrics.collector import (
    DELAY_HI,
    DELAY_LO,
    DELAY_LOG_BASE,
    DELAY_OVERFLOW,
    FlowStats,
    StatsCollector,
)
from repro.obs.events import DepartEvent, DropEvent, EnqueueEvent
from repro.sim.engine import Simulator
from repro.sim.packet import Packet

if TYPE_CHECKING:  # imported lazily to avoid a sim <-> sched import cycle
    from repro.sched.base import Scheduler

__all__ = ["OutputPort"]


class OutputPort:
    """A rate-``R`` output link fed through a managed buffer.

    Args:
        sim: the simulation engine.
        rate: link rate in bytes/second.
        scheduler: service order for admitted packets.
        manager: buffer-admission policy.
        collector: optional statistics sink.  The port counts into its
            ``flows`` itself, with the operations of the collector's
            ``on_offered``/``on_drop``/``on_depart``, one subscript per
            event to find the flow's :class:`FlowStats`.
        downstream: optional per-flow table, flow id -> the next hop's
            ``receive(packet)``, which chains multi-node topologies
            (:mod:`repro.net`): one subscript hands a departure on.
        recycle: accepted and ignored (packets are no longer pooled).
        label: node/link label stamped on emitted trace events ('' for
            single-port runs; :mod:`repro.net` uses ``"src->dst"``).
    """

    __slots__ = (
        "sim",
        "rate",
        "scheduler",
        "manager",
        "collector",
        "downstream",
        "label",
        "admitted_packets",
        "dropped_packets",
        "transmitted_packets",
        "_sink",
        "_serving",
        "_bound_finish",
    )

    def __init__(
        self,
        sim: Simulator,
        rate: float,
        scheduler: "Scheduler",
        manager,
        collector: StatsCollector | None = None,
        downstream=None,
        recycle: bool = False,
        label: str = "",
    ) -> None:
        if not 0.0 < rate < inf:  # refuses NaN too: it fails every comparison
            raise ConfigurationError(f"link rate must be positive and finite, got {rate}")
        self.sim = sim
        self.rate = float(rate)
        self.scheduler = scheduler
        self.manager = manager
        self.collector = collector
        self.downstream = downstream
        self.label = label
        self.admitted_packets = 0
        self.dropped_packets = 0
        self.transmitted_packets = 0
        self._sink = None
        self._serving: Packet | None = None  # the packet on the link
        # Bound once: every idle-link start schedules this callback.
        self._bound_finish = self._finish_transmission

    def attach_trace(self, sink) -> None:
        """Wire a :class:`~repro.obs.sink.TraceSink` through the whole port.

        The port emits every packet event itself (enqueue, drop, depart)
        and fans the sink out to the manager (threshold crossings,
        headroom), so one call traces every layer.  Pass ``None`` to
        detach everywhere.
        """
        self._sink = sink
        if hasattr(self.manager, "attach_trace"):
            clock = None if sink is None else (lambda: self.sim.now)
            self.manager.attach_trace(sink, clock, self.label)

    def _drop_reason(self, packet: Packet) -> str:
        reason = getattr(self.manager, "drop_reason", None)
        if reason is None:
            return "policy"
        return reason(packet.flow_id, packet.size)

    def receive(self, packet: Packet) -> bool:
        """Handle an arriving packet; returns True if admitted."""
        sim = self.sim
        now = sim.now
        flow_id = packet.flow_id
        size = packet.size
        collector = self.collector
        if collector is not None and now >= collector.warmup:
            try:
                stats = collector.flows[flow_id]
            except KeyError:
                stats = collector.flows[flow_id] = FlowStats()
            stats.offered_packets += 1
            stats.offered_bytes += size
        else:
            stats = None
        if not self.manager.try_admit(flow_id, size):
            self.dropped_packets += 1
            if stats is not None:
                stats.dropped_packets += 1
                stats.dropped_bytes += size
            if self._sink is not None:
                self._sink.emit(
                    DropEvent(now, flow_id, size, self._drop_reason(packet), self.label)
                )
            return False
        packet.enqueued = now
        self.admitted_packets += 1
        scheduler = self.scheduler
        scheduler.enqueue(packet)
        idle = self._serving is None
        if self._sink is not None:
            # The queue after the insert: admitted, not yet transmitted
            # and not the one in service.
            backlog = self.admitted_packets - self.transmitted_packets - (not idle)
            self._sink.emit(EnqueueEvent(now, flow_id, size, backlog, self.label))
        if idle:
            # Idle link: whatever the scheduler ranks first goes into service.
            head = scheduler.dequeue()
            if head is not None:
                self._serving = head
                sim.schedule_fast(head.size / self.rate, self._bound_finish)
        return True

    def _finish_transmission(self) -> float | None:
        """Return the next packet's time on the link, if any; overrides return ``super()``'s."""
        packet = self._serving
        now = self.sim.now
        enqueued = packet.enqueued
        if enqueued is None:
            # Every serviced packet was admitted through receive(), which
            # stamps `enqueued`; a missing timestamp means the packet
            # bypassed admission and the delay accounting is meaningless.
            raise SimulationError(
                f"packet {packet!r} finished service without an enqueue "
                "timestamp; it never passed through receive()"
            )
        flow_id = packet.flow_id
        size = packet.size
        self.manager.on_depart(flow_id, size)
        self.transmitted_packets += 1
        delay = now - enqueued
        collector = self.collector
        if collector is not None and now >= collector.warmup:
            try:
                stats = collector.flows[flow_id]
            except KeyError:
                stats = collector.flows[flow_id] = FlowStats()
            stats.departed_packets += 1
            stats.departed_bytes += size
            stats.delay_sum += delay
            if delay > stats.delay_max:
                stats.delay_max = delay
            if collector.delay_histograms:
                bins = stats.bins
                if bins is None:
                    bins = stats.bins = [0] * (DELAY_OVERFLOW + 1)
                if delay < DELAY_LO:
                    bins[0] += 1
                elif delay >= DELAY_HI:
                    bins[DELAY_OVERFLOW] += 1
                else:
                    bins[1 + int(log(delay / DELAY_LO) / DELAY_LOG_BASE)] += 1
        if self._sink is not None:
            self._sink.emit(DepartEvent(now, flow_id, size, delay, self.label))
        if self.downstream is not None:
            self.downstream[flow_id](packet)
        head = self._serving = self.scheduler.dequeue()
        return None if head is None else head.size / self.rate

    @property
    def backlog_packets(self) -> int:
        """Packets in the buffer, including the one in service."""
        return len(self.scheduler) + (self._serving is not None)
