"""Dynamic Threshold buffer sharing (Choudhury and Hahne, INFOCOM 1996).

Related-work baseline [1] of the paper.  Every flow shares a single
adaptive threshold proportional to the *remaining free space*: a packet of
flow ``i`` is admitted iff

    occupancy_i + L <= alpha * (B - total_occupancy)

With ``alpha = 1`` an overloaded buffer converges to each of ``n`` equally
greedy flows holding ``B / (n + 1)`` bytes while ``B / (n + 1)`` stays
free — the scheme deliberately wastes a fraction of the buffer to keep
space available for newly active flows.  Unlike the paper's scheme it has
no notion of per-flow reservations, which is why it cannot provide
heterogeneous rate guarantees.
"""

from __future__ import annotations

from repro.core.occupancy import BufferManager
from repro.errors import ConfigurationError

__all__ = ["DynamicThresholdManager"]


class DynamicThresholdManager(BufferManager):
    """Admit iff flow occupancy stays below ``alpha`` times free space.

    Args:
        capacity: total buffer size in bytes.
        alpha: proportionality constant (> 0); Choudhury-Hahne analyse
            powers of two, with 1 the canonical choice.
    """

    __slots__ = ("alpha",)

    DROP_REASON = "dynamic-threshold"

    def __init__(self, capacity: float, alpha: float = 1.0) -> None:
        super().__init__(capacity)
        if not alpha > 0:  # `not >`, so that a NaN alpha raises too
            raise ConfigurationError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)

    def current_threshold(self) -> float:
        """The shared dynamic threshold ``alpha * (B - Q(t))``."""
        return self.alpha * (self.capacity - self._total)

    def reprovision(self, flow_id: int, threshold: float) -> None:
        """Validating no-op: the shared threshold adapts by itself.

        Dynamic Threshold has no per-flow reservations to resize — the
        single threshold tracks free space, so a departing flow's space
        is redistributed automatically.  Accepting (and validating) the
        call keeps the manager usable behind the uniform reprovisioning
        contract.
        """
        if not threshold >= 0:  # `not >=`, so that a NaN threshold raises too
            raise ConfigurationError(
                f"threshold for flow {flow_id} must be non-negative, got {threshold}"
            )

    def _reference_threshold(self, flow_id: int) -> float | None:
        # The shared threshold moves with total occupancy; crossings are
        # traced against its value at the moment of the transition.
        return self.current_threshold()

    def _admits(self, flow_id: int, size: float) -> bool:
        if self._total + size > self.capacity:
            return False
        return self.occupancy(flow_id) + size <= self.current_threshold()
