"""Fixed-partition threshold policy (Sections 2 and 3.2).

The buffer is *logically* partitioned: each flow has an occupancy
threshold and a packet is admitted iff

* it fits in the remaining buffer space, and
* it would not raise its flow's occupancy above the flow's threshold.

Enforcing the policy takes a constant number of operations per packet —
the property that makes the scheme scale to backbone flow counts.
"""

from __future__ import annotations

from repro.core.occupancy import FlowThresholdManager
from repro.errors import SimulationError

__all__ = ["FixedThresholdManager"]


class FixedThresholdManager(FlowThresholdManager):
    """Per-flow occupancy thresholds over a shared buffer.

    Arguments as for :class:`FlowThresholdManager`; the default
    ``default_threshold`` of 0 drops unknown flows, which is the safe
    choice for guaranteed-service buffers.
    """

    __slots__ = ()

    DROP_REASON = "threshold"

    # Admission enforces occupancy + size <= threshold, so the
    # threshold is a hard cap the conformance monitor may check.
    enforces_thresholds = True

    def try_admit(self, flow_id: int, size: float) -> bool:
        """Guard, both threshold tests and the charge in one flat body."""
        if size <= 0:
            raise SimulationError(f"packet size must be positive, got {size}")
        new_total = self._total + size
        # Fitting the buffer is the predicate's first test, so the generic
        # path's admitted-beyond-capacity guard cannot fire below it.
        if new_total > self.capacity:
            return False
        try:
            slot = self._flows[flow_id]
        except KeyError:
            return self._admit_first(flow_id, size)
        after = slot.occupancy + size
        threshold = slot.threshold
        if after > threshold:
            return False
        slot.occupancy = after
        self._total = new_total
        if self._sink is not None and after - size < threshold <= after:
            self._trace_crossing(flow_id, after, threshold, "up")
        return True
