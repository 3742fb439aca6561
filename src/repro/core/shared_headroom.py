"""Buffer sharing with headroom and holes (Section 3.3).

The fixed-partition scheme wastes buffer whenever a flow does not use its
reservation.  The paper's sharing variant keeps the same per-flow
thresholds but lets active flows borrow unused space, while a *headroom*
of up to ``H`` bytes is held back so flows still within their reservation
always find room.  The borrowable space is called *holes*.

Bookkeeping (quotes from the paper, Section 3.3):

* Free space is split between two counters with the invariant
  ``holes + headroom + total_occupancy == B`` and ``headroom <= H``.
* Arrival for a flow **within its reservation** (occupancy + L <= T):
  "we first attempt to use buffer space from the holes ... If the space
  from the holes is insufficient, then buffer space from the reserved
  headroom is used.  If the available space is still insufficient, the
  packet is dropped."  Because holes + headroom equals the free space,
  such packets are admitted exactly when they fit — the scheme is never
  stricter than fixed partitioning for in-profile traffic.
* Arrival for a flow **beyond its reservation**: served from holes only,
  "a packet is accepted only if the amount of buffer space occupied by
  the flow minus its reserved share is less than the amount of remaining
  space in the holes" — we enforce ``occupancy - T + L <= holes`` (and
  ``L <= holes``), so the extra space a flow grabs can never exceed the
  holes that remain.  A packet that would straddle the threshold is
  handled by this path.
* Departure of length L: ``headroom += L; holes += max(headroom - H, 0);
  headroom = min(headroom, H)`` — freed space refills the headroom first.

This mirrors the Dynamic Threshold scheme of Choudhury and Hahne, with the
flow-specific acceptance rule below threshold and the headroom cap as the
paper's stated differences.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.occupancy import FlowThresholdManager
from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import HeadroomEvent

__all__ = ["SharedHeadroomManager"]


class SharedHeadroomManager(FlowThresholdManager):
    """Threshold-based buffer sharing with a protected headroom.

    Args:
        capacity: total buffer size ``B`` in bytes.
        thresholds: mapping flow id -> reserved threshold ``T_i`` in bytes
            (computed exactly as in the fixed-partition case).
        headroom: the cap ``H`` in bytes on the protected headroom.
        default_threshold: reservation applied to unknown flows
            (0 = unknown flows may only use holes).
    """

    __slots__ = ("headroom_cap", "headroom", "holes")

    DROP_REASON = "shared-buffer"

    def __init__(
        self,
        capacity: float,
        thresholds: Mapping[int, float],
        headroom: float,
        default_threshold: float = 0.0,
    ) -> None:
        super().__init__(capacity, thresholds, default_threshold)
        if not headroom >= 0:  # `not >=`, so that a NaN headroom raises too
            raise ConfigurationError(f"headroom must be non-negative, got {headroom}")
        self.headroom_cap = float(headroom)
        self.headroom = min(self.headroom_cap, self.capacity)
        self.holes = self.capacity - self.headroom

    def _trace_headroom(self) -> None:
        self._sink.emit(
            HeadroomEvent(self._clock(), self.headroom, self.holes, self._node)
        )

    def try_admit(self, flow_id: int, size: float) -> bool:
        """Guard, both Section-3.3 acceptance rules and the charge, flat."""
        if size <= 0:
            raise SimulationError(f"packet size must be positive, got {size}")
        try:
            slot = self._flows[flow_id]
        except KeyError:
            return self._admit_first(flow_id, size)
        occupancy = slot.occupancy
        after = occupancy + size
        threshold = slot.threshold
        holes = self.holes
        within = after <= threshold
        if within:
            if holes + self.headroom < size:
                return False
        elif size > holes or occupancy - threshold + size > holes:
            return False
        new_total = self._total + size
        if new_total > self.capacity + 1e-6:
            raise SimulationError(
                f"policy {type(self).__name__} admitted beyond capacity "
                f"({new_total} > {self.capacity})"
            )
        slot.occupancy = after
        self._total = new_total
        # Within the reservation the packet takes from holes first and
        # the remainder from headroom; beyond it, from holes only.
        if within and holes < size:
            self.holes = 0.0
            self.headroom -= size - holes
        else:
            self.holes = holes - size
        self._check_counters()
        if self._sink is not None:
            self._trace_headroom()
            if after - size < threshold <= after:
                self._trace_crossing(flow_id, after, threshold, "up")
        return True

    def on_depart(self, flow_id: int, size: float) -> None:
        """Release the packet's space; freed space refills the headroom first."""
        try:
            slot = self._flows[flow_id]
        except KeyError:
            raise SimulationError(
                f"flow {flow_id} departed without a matching admission"
            ) from None
        occupancy = slot.occupancy - size
        if occupancy < 0.0:
            if occupancy < -1e-6:
                raise SimulationError(
                    f"flow {flow_id} occupancy went negative ({occupancy}); "
                    "departure without matching admission"
                )
            occupancy = 0.0
        slot.occupancy = occupancy
        total = self._total - size
        self._total = total if total >= 0.0 else 0.0
        headroom = self.headroom + size
        if headroom > self.headroom_cap:
            self.holes += headroom - self.headroom_cap
            headroom = self.headroom_cap
        self.headroom = headroom
        self._check_counters()
        if self._sink is not None:
            self._trace_headroom()
            threshold = slot.threshold
            if occupancy < threshold <= occupancy + size:
                self._trace_crossing(flow_id, occupancy, threshold, "down")
        if self._retired:
            self._reclaim(flow_id, occupancy)

    def _check_counters(self) -> None:
        if self.holes < -1e-6 or self.headroom < -1e-6:
            raise SimulationError(
                f"sharing counters went negative (holes={self.holes}, "
                f"headroom={self.headroom})"
            )
        expected_free = self.capacity - self._total
        if not -1e-3 <= (self.holes + self.headroom) - expected_free <= 1e-3:
            raise SimulationError(
                "holes + headroom diverged from free space: "
                f"{self.holes} + {self.headroom} != {expected_free}"
            )
