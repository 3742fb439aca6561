"""Flow Random Early Drop (Lin and Morris, SIGCOMM 1997).

Related-work baseline [5] of the paper.  FRED adds per-active-flow
accounting to RED so that non-adaptive flows cannot monopolise the queue:

* ``minq`` / ``maxq``: per-flow queue bounds (bytes here);
* ``avgcq``: average per-flow backlog over the currently active flows;
* a per-flow ``strike`` count penalises flows that repeatedly exceed
  ``maxq`` — such flows are then held to the average backlog.

This is the published algorithm restated over byte counts; the RED
machinery (EWMA average, probabilistic drop between ``min_th`` and
``max_th``) is inherited from :class:`repro.core.red.REDManager`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.red import REDManager
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.sim.engine import Simulator
    from repro.sim.rng import Generator

__all__ = ["FREDManager"]


class FREDManager(REDManager):
    """FRED: RED plus per-flow protection state.

    Args:
        minq: per-flow backlog (bytes) always allowed when avg < max_th.
        maxq: per-flow backlog cap (bytes).
        (remaining arguments as for :class:`REDManager`)
    """

    DROP_REASON = "fred"

    __slots__ = ("minq", "maxq", "_strikes")

    def __init__(
        self,
        capacity: float,
        min_th: float,
        max_th: float,
        rng: Generator,
        sim: Simulator,
        minq: float,
        maxq: float,
        max_p: float = 0.02,
        weight: float = 0.002,
        mean_tx_time: float = 1e-3,
    ) -> None:
        super().__init__(
            capacity, min_th, max_th, rng, sim,
            max_p=max_p, weight=weight, mean_tx_time=mean_tx_time,
        )
        if not 0 < minq <= maxq:
            raise ConfigurationError(f"need 0 < minq <= maxq, got ({minq}, {maxq})")
        self.minq = float(minq)
        self.maxq = float(maxq)
        self._strikes: dict[int, int] = {}

    def active_flows(self) -> int:
        """Number of flows with a non-zero backlog."""
        return sum(1 for occupancy in self._occupancy.values() if occupancy > 0)

    def average_per_flow_backlog(self) -> float:
        """``avgcq``: average backlog over active flows (>= one packet)."""
        active = self.active_flows()
        if active == 0:
            return max(self.avg, 1.0)
        return max(self.avg / active, 1.0)

    def _admits(self, flow_id: int, size: float) -> bool:
        self._update_average()
        if self._total + size > self.capacity:
            self._count = 0
            return False
        occupancy = self.occupancy(flow_id)
        avgcq = self.average_per_flow_backlog()
        strikes = self._strikes.get(flow_id, 0)
        # Identify and bound non-adaptive flows.
        if (
            occupancy + size > self.maxq
            or (self.avg >= self.max_th and occupancy + size > 2 * avgcq)
            or (strikes > 1 and occupancy + size > avgcq)
        ):
            self._strikes[flow_id] = strikes + 1
            return False
        if self.avg < self.min_th:
            self._count = -1
            return True
        # Between the thresholds: always accept a flow below minq (this is
        # FRED's protection of fragile, low-bandwidth flows), otherwise use
        # RED's probabilistic drop.
        if occupancy + size <= self.minq:
            return True
        return self._passes_early_drop()
