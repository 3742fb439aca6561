"""Random Early Detection (Floyd and Jacobson, 1993).

Related-work baseline [3] of the paper.  RED keeps an exponentially
weighted moving average of the queue size and drops arriving packets with
a probability that rises from 0 at ``min_th`` to ``max_p`` at ``max_th``
(and 1 beyond).  It manages the *aggregate* queue: there is no per-flow
state, so it cannot provide the per-flow rate guarantees the paper is
after — which is exactly the contrast the paper draws.

The implementation follows the 1993 paper: the average is updated on every
arrival; when the queue is empty, the average decays as if ``idle /
mean_tx_time`` small packets had been transmitted; the drop probability is
adjusted by the count of packets since the last drop so that drops are
roughly uniformly spaced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.occupancy import BufferManager
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.rng import Generator

__all__ = ["REDManager"]


class REDManager(BufferManager):
    """RED over a shared buffer, thresholds expressed in bytes.

    Args:
        capacity: physical buffer size in bytes (hard drop when full).
        min_th: average-queue size (bytes) below which all packets pass.
        max_th: average-queue size (bytes) above which all packets drop.
        max_p: drop probability at ``max_th``.
        weight: EWMA weight ``w_q`` for the average queue size.
        rng: random generator used for probabilistic drops.
        sim: the simulator (any object with a float ``now``); its clock
            decays the average over idle periods.
        mean_tx_time: transmission time of a typical packet, used by the
            idle-decay rule.
    """

    DROP_REASON = "red"

    __slots__ = (
        "min_th",
        "max_th",
        "max_p",
        "weight",
        "mean_tx_time",
        "_rng",
        "_sim",
        "avg",
        "_count",
        "_idle_since",
    )

    def __init__(
        self,
        capacity: float,
        min_th: float,
        max_th: float,
        rng: Generator,
        sim: Simulator,
        max_p: float = 0.02,
        weight: float = 0.002,
        mean_tx_time: float = 1e-3,
    ) -> None:
        super().__init__(capacity)
        if not 0 < min_th < max_th:
            raise ConfigurationError(
                f"need 0 < min_th < max_th, got ({min_th}, {max_th})"
            )
        if not 0 < max_p <= 1:
            raise ConfigurationError(f"max_p must be in (0, 1], got {max_p}")
        if not 0 < weight <= 1:
            raise ConfigurationError(f"weight must be in (0, 1], got {weight}")
        if not mean_tx_time > 0:  # `not >`, so that a NaN time raises too
            raise ConfigurationError(f"mean_tx_time must be positive, got {mean_tx_time}")
        self.min_th = float(min_th)
        self.max_th = float(max_th)
        self.max_p = float(max_p)
        self.weight = float(weight)
        self.mean_tx_time = float(mean_tx_time)
        self._rng = rng
        # Not BufferManager._clock: attach_trace owns that slot.
        self._sim = sim
        self.avg = 0.0
        self._count = -1  # packets since last drop; -1 = no recent drop
        self._idle_since: float | None = sim.now

    def _update_average(self) -> None:
        if self._idle_since is not None:
            idle = max(self._sim.now - self._idle_since, 0.0)
            slots = idle / self.mean_tx_time
            self.avg *= (1.0 - self.weight) ** slots
            self._idle_since = None
        self.avg += self.weight * (self._total - self.avg)

    def _admits(self, flow_id: int, size: float) -> bool:
        self._update_average()
        if self._total + size > self.capacity:
            self._count = 0
            return False
        if self.avg < self.min_th:
            self._count = -1
            return True
        return self._passes_early_drop()

    def _passes_early_drop(self) -> bool:
        """RED's test above ``min_th``: certain drop at ``max_th``, else a draw."""
        if self.avg >= self.max_th:
            self._count = 0
            return False
        prob = self.max_p * (self.avg - self.min_th) / (self.max_th - self.min_th)
        self._count += 1
        if self._count * prob < 1.0:
            prob = prob / (1.0 - self._count * prob)
        else:
            prob = 1.0
        if self._rng.random() < prob:
            self._count = 0
            return False
        return True

    def on_depart(self, flow_id: int, size: float) -> None:
        """Release the space and start the idle clock when the queue empties."""
        super().on_depart(flow_id, size)
        if self._total <= 0:
            self._idle_since = self._sim.now
