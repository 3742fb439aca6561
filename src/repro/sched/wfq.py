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

A ``class_of`` table lets the same machinery schedule *classes* instead of
flows, which is how the Section-4 hybrid system is built (WFQ across a
small number of FIFO queues).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from math import inf
from typing import TYPE_CHECKING, Mapping

from repro.errors import ConfigurationError, SimulationError
from repro.sched.base import FinishTagScheduler
from repro.sim.packet import Packet

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = ["WFQScheduler"]


class WFQScheduler(FinishTagScheduler):
    """Virtual-time weighted fair queueing over a fixed set of flows.

    Args:
        sim: the simulator whose clock virtual time follows (any object
            with a float ``now``).
        link_rate: output link rate in bytes/second.
        weights: mapping from scheduling key to weight.  Weights are
            reserved rates in bytes/second; they need not sum to
            ``link_rate``.
        class_of: optional mapping flow id -> scheduling key, for queues
            shared by several flows.  Without it a packet's key is its
            ``flow_id``.  Either way the key must appear in ``weights``.
    """

    __slots__ = ("class_of", "_sim", "_rate", "_last_update", "_active_weight")

    NAME = "WFQ"

    def __init__(
        self,
        sim: Simulator,
        link_rate: float,
        weights: Mapping[int, float],
        class_of: Mapping[int, int] | None = None,
    ) -> None:
        if not 0.0 < link_rate < inf:  # refuses NaN too: it fails every comparison
            raise ConfigurationError(f"link_rate must be positive and finite, got {link_rate}")
        super().__init__(weights)
        self.class_of = class_of
        self._sim = sim
        self._rate = link_rate
        self._last_update = sim.now
        self._active_weight = 0.0

    @property
    def virtual_time(self) -> float:
        """Current system virtual time (after catching up to the clock)."""
        now = self._sim.now
        if now > self._last_update:
            if self._active_weight > 0:
                self._vtime += (now - self._last_update) * self._rate / self._active_weight
            self._last_update = now
        return self._vtime

    def enqueue(self, packet: Packet) -> None:
        key = packet.flow_id
        if self.class_of is not None:
            try:
                key = self.class_of[key]
            except KeyError:
                raise ConfigurationError(f"flow {key} not assigned to any class") from None
        try:
            flow = self._flows[key]
        except KeyError:
            raise ConfigurationError(f"packet classified to unknown WFQ key {key}") from None
        # V catches up to the clock at rate R / (backlogged weight).
        now = self._sim.now
        if now > self._last_update:
            if self._active_weight > 0:
                self._vtime += (now - self._last_update) * self._rate / self._active_weight
            self._last_update = now
        # F = max(V, F_prev) + L / w; a stamp left by an earlier busy
        # period has lapsed and reads as 0 <= V.
        start = self._vtime
        if flow.epoch != self._epoch:
            flow.epoch = self._epoch
        elif flow.last_finish > start:
            start = flow.last_finish
        flow.last_finish = finish = start + packet.size / flow.weight
        entry = (finish, packet.seq, flow, packet)
        queue = flow.queue
        if not queue:
            self._active_weight += flow.weight
            heappush(self._hol, entry)
        queue.append(entry)
        self._count += 1

    def dequeue(self) -> Packet | None:
        hol = self._hol
        if not hol:
            return None
        now = self._sim.now
        if now > self._last_update:
            if self._active_weight > 0:
                self._vtime += (now - self._last_update) * self._rate / self._active_weight
            self._last_update = now
        entry = hol[0]
        flow = entry[2]
        queue = flow.queue
        if not queue or queue.popleft() is not entry:
            raise SimulationError("WFQ head-of-line heap out of sync with flow queue")
        if queue:
            heapreplace(hol, queue[0])
        else:
            heappop(hol)
            self._active_weight -= flow.weight
            if self._active_weight < 1e-9:
                self._active_weight = 0.0
        packet = entry[3]
        self._count -= 1
        if self._count == 0:
            # The queue drained: a new busy period starts from a clean
            # slate, or finish stamps would penalise (or credit) flows
            # across idle gaps.  The stamps lapse with the epoch.
            self._vtime = 0.0
            self._last_update = now
            self._active_weight = 0.0
            self._epoch += 1
        return packet
