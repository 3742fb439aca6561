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

    __slots__ = ("_queue", "_bytes")

    def __init__(self) -> None:
        self._queue: deque[Packet] = deque()
        self._bytes: float = 0.0

    def enqueue(self, packet: Packet) -> None:
        self._queue.append(packet)
        self._bytes += packet.size

    def dequeue(self) -> Packet | None:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        return packet

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog_bytes(self) -> float:
        return self._bytes
