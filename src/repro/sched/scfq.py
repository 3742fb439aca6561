"""Self-Clocked Fair Queueing (Golestani, 1994).

A cheaper relative of WFQ, included for the scheduler-cost comparison the
paper motivates (its Section 1 discusses reducing the sorting cost, e.g.
the leap-forward virtual clock of [8]).  SCFQ avoids simulating the GPS
reference: the system virtual time is simply the finish tag of the packet
*currently in service*, so maintaining it is O(1) — the per-packet cost
is only the priority-queue operation.

Packet tags: ``F = max(F_prev, V_service) + L / w``; service order is by
increasing tag.  SCFQ's rate guarantees are slightly looser than WFQ's
(its delay bound grows with the number of flows), which is exactly the
complexity/guarantee trade-off axis the paper explores from the other
end.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Mapping

from repro.errors import ConfigurationError, SimulationError
from repro.sched.base import Scheduler
from repro.sim.packet import Packet

__all__ = ["SCFQScheduler"]


class _FlowState:
    __slots__ = ("weight", "queue", "tags", "last_tag", "epoch")

    def __init__(self, weight: float):
        self.weight = weight
        self.queue: deque[Packet] = deque()
        self.tags: deque[float] = deque()
        self.last_tag = 0.0
        #: Busy period ``last_tag`` belongs to; a stale one reads as 0.
        self.epoch = 0


class SCFQScheduler(Scheduler):
    """Self-clocked fair queueing over a fixed set of flows.

    Args:
        weights: mapping flow id -> weight (reserved rate, bytes/second).
    """

    __slots__ = ("_flows", "_hol", "_vtime", "_epoch", "_count", "_bytes")

    def __init__(self, weights: Mapping[int, float]) -> None:
        if not weights:
            raise ConfigurationError("SCFQ requires at least one flow weight")
        for key, weight in weights.items():
            if weight <= 0:
                raise ConfigurationError(
                    f"weight for flow {key} must be positive, got {weight}"
                )
        super().__init__()
        self._flows = {key: _FlowState(float(w)) for key, w in weights.items()}
        self._hol: list[tuple[float, int, int, Packet]] = []
        self._vtime = 0.0  # tag of the packet in service (self-clocking)
        self._epoch = 0  # busy periods completed
        self._count = 0
        self._bytes = 0.0

    @property
    def virtual_time(self) -> float:
        """The self-clocked virtual time (last served packet's tag)."""
        return self._vtime

    def enqueue(self, packet: Packet) -> None:
        flow = self._flows.get(packet.flow_id)
        if flow is None:
            raise ConfigurationError(f"unknown SCFQ flow {packet.flow_id}")
        if flow.epoch != self._epoch:
            # First packet of this flow in the current busy period.
            flow.epoch = self._epoch
            flow.last_tag = 0.0
        start = max(self._vtime, flow.last_tag)
        tag = start + packet.size / flow.weight
        flow.last_tag = tag
        was_empty = not flow.queue
        flow.queue.append(packet)
        flow.tags.append(tag)
        if was_empty:
            heapq.heappush(self._hol, (tag, packet.seq, packet.flow_id, packet))
        self._count += 1
        self._bytes += packet.size
        if self._sink is not None:
            self._trace_enqueue(packet, self._count)

    def dequeue(self) -> Packet | None:
        if not self._hol:
            return None
        tag, _seq, flow_id, packet = heapq.heappop(self._hol)
        flow = self._flows[flow_id]
        if not flow.queue or flow.queue[0] is not packet:
            raise SimulationError("SCFQ head-of-line heap out of sync")
        flow.queue.popleft()
        flow.tags.popleft()
        self._vtime = tag  # self-clocking: V := tag of packet entering service
        if flow.queue:
            heapq.heappush(
                self._hol, (flow.tags[0], flow.queue[0].seq, flow_id, flow.queue[0])
            )
        self._count -= 1
        self._bytes -= packet.size
        if self._count == 0:
            # New busy period: reset the clock so idle flows do not carry
            # stale credit or debt across idle gaps.  Tags lapse with the
            # epoch (checked in ``enqueue``) instead of being cleared here,
            # which would be O(flows) per drain.
            self._vtime = 0.0
            self._epoch += 1
        return packet

    def __len__(self) -> int:
        return self._count

    @property
    def backlog_bytes(self) -> float:
        return self._bytes

    def queue_length(self, flow_id: int) -> int:
        """Number of packets queued for the given flow."""
        return len(self._flows[flow_id].queue)
