"""Rotating Priority Queues (Wrege and Liebeherr, INFOCOM 1997).

Related work [10]: the paper describes its FIFO-plus-thresholds design
as taking the RPQ idea — avoid per-packet sorting altogether — "to its
extreme configuration".  RPQ approximates Earliest-Deadline-First with a
small set of FIFO queues whose priorities rotate every ``delta``
seconds: a packet with relative deadline ``d`` is placed ``ceil(d /
delta)`` positions down the rotation, so sorting is replaced by O(1)
bucket selection at a granularity of ``delta``.

The implementation uses the calendar-queue formulation: bucket id =
``current epoch + deadline class``; service always drains the smallest
non-empty bucket FIFO.  Epochs advance with the clock
(``epoch = floor(now / delta)``), which is exactly the queue rotation.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError
from repro.sched.base import Scheduler
from repro.sim.packet import Packet

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = ["RPQScheduler"]


class RPQScheduler(Scheduler):
    """Coarse EDF via rotating FIFO priority buckets.

    Args:
        sim: the simulator whose clock rotates the priorities (any
            object with a float ``now``).
        delta: rotation period in seconds (the deadline granularity).
        class_of: mapping flow id -> deadline class, a non-negative
            integer; a packet of class ``c`` arriving in epoch ``e`` is
            served with bucket priority ``e + c`` (class 0 = most
            urgent).  A flow absent from it is refused.
    """

    __slots__ = (
        "delta",
        "class_of",
        "_sim",
        "_buckets",
        "_order",
        "_count",
    )

    def __init__(
        self,
        sim: Simulator,
        delta: float,
        class_of: Mapping[int, int],
    ) -> None:
        if not 0.0 < delta < math.inf:  # refuses NaN too: it fails every comparison
            raise ConfigurationError(f"delta must be positive and finite, got {delta}")
        for flow_id, klass in class_of.items():
            if klass < 0:
                raise ConfigurationError(
                    f"deadline class for flow {flow_id} must be >= 0, got {klass}"
                )
        self._sim = sim
        self.delta = float(delta)
        self.class_of = dict(class_of)
        self._buckets: dict[int, deque[Packet]] = {}
        self._order: list[int] = []  # heap of non-empty bucket ids
        self._count = 0

    def _epoch(self) -> int:
        return int(math.floor(self._sim.now / self.delta))

    def _class_for(self, flow_id: int) -> int:
        klass = self.class_of.get(flow_id)
        if klass is None:
            raise ConfigurationError(f"no deadline class for flow {flow_id}")
        return klass

    def enqueue(self, packet: Packet) -> None:
        bucket_id = self._epoch() + self._class_for(packet.flow_id)
        bucket = self._buckets.get(bucket_id)
        if bucket is None:
            bucket = deque()
            self._buckets[bucket_id] = bucket
            heapq.heappush(self._order, bucket_id)
        bucket.append(packet)
        self._count += 1

    def dequeue(self) -> Packet | None:
        while self._order:
            bucket_id = self._order[0]
            bucket = self._buckets.get(bucket_id)
            if not bucket:
                heapq.heappop(self._order)
                self._buckets.pop(bucket_id, None)
                continue
            packet = bucket.popleft()
            self._count -= 1
            if not bucket:
                heapq.heappop(self._order)
                self._buckets.pop(bucket_id, None)
            return packet
        return None

    def __len__(self) -> int:
        return self._count

    def bucket_count(self) -> int:
        """Number of currently non-empty buckets."""
        return sum(1 for bucket in self._buckets.values() if bucket)
