"""Weighted Fair Queueing (packetized GPS approximation).

This is the paper's benchmark scheduler.  The implementation is the
standard virtual-time realisation:

* each backlogged flow has a FIFO queue of its own packets;
* system virtual time ``V`` advances at rate ``R / sum(w_j)`` over the set
  of currently backlogged flows (weights ``w_j`` are the reserved rates in
  bytes/second, so ``dV/dt >= 1`` whenever the reserved utilisation is at
  most one);
* a packet of length ``L`` arriving for flow ``i`` is stamped with finish
  time ``F = max(V, F_i_prev) + L / w_i``;
* the scheduler always serves the head-of-line packet with the smallest
  finish stamp.

This tracks the backlogged set of the *packet* system rather than the
exact GPS reference system, which is the usual simulator approximation; it
preserves the rate-guarantee and proportional-sharing properties the paper
relies on.

A ``classifier`` hook lets the same machinery schedule *classes* instead of
flows, which is how the Section-4 hybrid system is built (WFQ across a
small number of FIFO queues).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Mapping

from repro.errors import ConfigurationError, SimulationError
from repro.sched.base import Scheduler
from repro.sim.packet import Packet

__all__ = ["WFQScheduler"]


class _FlowState:
    __slots__ = ("weight", "queue", "finishes", "last_finish", "epoch")

    def __init__(self, weight: float):
        self.weight = weight
        self.queue: deque[Packet] = deque()
        self.finishes: deque[float] = deque()
        self.last_finish = 0.0
        #: Busy period ``last_finish`` belongs to (see ``_reset_busy_period``).
        self.epoch = 0


class WFQScheduler(Scheduler):
    """Virtual-time weighted fair queueing over a fixed set of flows.

    Args:
        clock: zero-argument callable returning the current simulation
            time (typically ``lambda: sim.now``).
        link_rate: output link rate in bytes/second.
        weights: mapping from flow id to weight.  Weights are reserved
            rates in bytes/second; they need not sum to ``link_rate``.
        classifier: optional function mapping a packet to the scheduling
            key used for queue selection.  Defaults to ``packet.flow_id``.
            Keys produced by the classifier must appear in ``weights``.
    """

    __slots__ = (
        "_rate",
        "_classify",
        "_flows",
        "_hol",
        "_vtime",
        "_last_update",
        "_active_weight",
        "_epoch",
        "_count",
        "_bytes",
    )

    def __init__(
        self,
        clock: Callable[[], float],
        link_rate: float,
        weights: Mapping[int, float],
        classifier: Callable[[Packet], int] | None = None,
    ) -> None:
        if link_rate <= 0:
            raise ConfigurationError(f"link_rate must be positive, got {link_rate}")
        if not weights:
            raise ConfigurationError("WFQ requires at least one flow weight")
        for key, weight in weights.items():
            if weight <= 0:
                raise ConfigurationError(f"weight for key {key} must be positive, got {weight}")
        super().__init__()
        self._clock = clock
        self._rate = link_rate
        self._classify = classifier or (lambda packet: packet.flow_id)
        self._flows = {key: _FlowState(float(w)) for key, w in weights.items()}
        self._hol: list[tuple[float, int, int, Packet]] = []
        self._vtime = 0.0
        self._last_update = clock()
        self._active_weight = 0.0
        self._epoch = 0
        self._count = 0
        self._bytes = 0.0

    @property
    def virtual_time(self) -> float:
        """Current system virtual time (after catching up to the clock)."""
        self._advance_vtime()
        return self._vtime

    def _advance_vtime(self) -> None:
        now = self._clock()
        if now > self._last_update:
            if self._active_weight > 0:
                self._vtime += (now - self._last_update) * self._rate / self._active_weight
            self._last_update = now

    def enqueue(self, packet: Packet) -> None:
        key = self._classify(packet)
        flow = self._flows.get(key)
        if flow is None:
            raise ConfigurationError(f"packet classified to unknown WFQ key {key}")
        self._advance_vtime()
        if flow.epoch != self._epoch:
            # First packet of this flow in the current busy period.
            flow.epoch = self._epoch
            flow.last_finish = 0.0
        start = max(self._vtime, flow.last_finish)
        finish = start + packet.size / flow.weight
        flow.last_finish = finish
        was_empty = not flow.queue
        flow.queue.append(packet)
        flow.finishes.append(finish)
        if was_empty:
            self._active_weight += flow.weight
            heapq.heappush(self._hol, (finish, packet.seq, key, packet))
        self._count += 1
        self._bytes += packet.size
        if self._sink is not None:
            self._trace_enqueue(packet, self._count)

    def dequeue(self) -> Packet | None:
        if not self._hol:
            return None
        self._advance_vtime()
        _finish, _seq, key, packet = heapq.heappop(self._hol)
        flow = self._flows[key]
        if not flow.queue or flow.queue[0] is not packet:
            raise SimulationError("WFQ head-of-line heap out of sync with flow queue")
        flow.queue.popleft()
        flow.finishes.popleft()
        if flow.queue:
            heapq.heappush(
                self._hol, (flow.finishes[0], flow.queue[0].seq, key, flow.queue[0])
            )
        else:
            self._active_weight -= flow.weight
            if self._active_weight < 1e-9:
                self._active_weight = 0.0
        self._count -= 1
        self._bytes -= packet.size
        if self._count == 0:
            self._reset_busy_period()
        return packet

    def _reset_busy_period(self) -> None:
        # When the queue drains, a new busy period starts from a clean
        # slate: without this, finish stamps from the previous busy period
        # would penalise (or credit) flows across idle gaps.  The stamps
        # are not cleared here — that would be O(flows) on every drain,
        # i.e. per packet at light load — but lapse with the epoch:
        # ``enqueue`` zeroes a stamp left by an earlier busy period.
        self._vtime = 0.0
        self._last_update = self._clock()
        self._active_weight = 0.0
        self._epoch += 1

    def __len__(self) -> int:
        return self._count

    @property
    def backlog_bytes(self) -> float:
        return self._bytes

    def queue_length(self, key: int) -> int:
        """Number of packets queued under the given scheduling key."""
        return len(self._flows[key].queue)
