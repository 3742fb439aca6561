"""FIFO scheduler — the paper's target service discipline.

Constant-time enqueue/dequeue; all differentiation between flows happens in
the buffer manager, which is the paper's central point.
"""

from __future__ import annotations

from collections import deque

from repro.sched.base import Scheduler
from repro.sim.packet import Packet

__all__ = ["FIFOScheduler"]


class FIFOScheduler(Scheduler):
    """Serve packets strictly in arrival order."""

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        self._queue: deque[Packet] = deque()

    def enqueue(self, packet: Packet) -> None:
        self._queue.append(packet)

    def dequeue(self) -> Packet | None:
        if not self._queue:
            return None
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)
