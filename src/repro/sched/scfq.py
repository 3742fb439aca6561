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

from heapq import heappop, heappush, heapreplace

from repro.errors import ConfigurationError, SimulationError
from repro.sched.base import FinishTagScheduler
from repro.sim.packet import Packet

__all__ = ["SCFQScheduler"]


class SCFQScheduler(FinishTagScheduler):
    """Self-clocked fair queueing over a fixed set of flows.

    Args:
        weights: mapping flow id -> weight (reserved rate, bytes/second).
    """

    __slots__ = ()

    NAME = "SCFQ"

    @property
    def virtual_time(self) -> float:
        """The self-clocked virtual time (last served packet's tag)."""
        return self._vtime

    def enqueue(self, packet: Packet) -> None:
        key = packet.flow_id
        try:
            flow = self._flows[key]
        except KeyError:
            raise ConfigurationError(f"unknown SCFQ flow {key}") from None
        # F = max(V, F_prev) + L / w; a tag left by an earlier busy period
        # has lapsed and reads as 0 <= V.
        start = self._vtime
        if flow.epoch != self._epoch:
            flow.epoch = self._epoch
        elif flow.last_finish > start:
            start = flow.last_finish
        flow.last_finish = tag = start + packet.size / flow.weight
        entry = (tag, packet.seq, flow, packet)
        queue = flow.queue
        if not queue:
            heappush(self._hol, entry)
        queue.append(entry)
        self._count += 1

    def dequeue(self) -> Packet | None:
        hol = self._hol
        if not hol:
            return None
        entry = hol[0]
        queue = entry[2].queue
        if not queue or queue.popleft() is not entry:
            raise SimulationError("SCFQ head-of-line heap out of sync")
        if queue:
            heapreplace(hol, queue[0])
        else:
            heappop(hol)
        self._vtime = entry[0]  # self-clocking: V := tag of the packet entering service
        packet = entry[3]
        self._count -= 1
        if self._count == 0:
            # New busy period: restart the clock so idle flows do not
            # carry stale credit or debt across idle gaps; their tags
            # lapse with the epoch.
            self._vtime = 0.0
            self._epoch += 1
        return packet
