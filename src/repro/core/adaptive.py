"""Adaptive/non-adaptive sharing (the paper's Section-5 future work).

The conclusion sketches a refinement of the sharing scheme: "one could
also envision allowing adaptive flows to share buffers with reserved
flows, while non-adaptive ones would be prevented from doing so.  This
would provide adaptive flows with greater access to available bandwidth
without impacting reservations, and without entirely shutting off
non-adaptive flows from accessing idle resources."

:class:`AdaptiveSharingManager` implements exactly that policy on top of
the headroom/holes machinery:

* flows tagged **adaptive** use the full Section-3.3 rules — holes first,
  then headroom while within reservation, holes (fairness-capped) beyond;
* flows tagged **non-adaptive** may exceed their reservation only up to a
  configurable fraction of the holes (``nonadaptive_share``), and never
  touch the headroom — with ``nonadaptive_share = 0`` they are confined
  to their thresholds, with 1 they behave like adaptive flows.

The rationale: adaptive (congestion-reacting) flows back off when their
borrowed packets are dropped later, so lending them space is safe;
non-adaptive flows would simply occupy whatever they are lent.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.shared_headroom import SharedHeadroomManager
from repro.errors import ConfigurationError

__all__ = ["AdaptiveSharingManager"]


class AdaptiveSharingManager(SharedHeadroomManager):
    """Headroom/holes sharing with per-flow adaptivity classes.

    Args:
        capacity: total buffer size in bytes.
        thresholds: per-flow reserved thresholds (as in the base scheme).
        headroom: the protected headroom cap ``H``.
        adaptive_flows: flow ids allowed full sharing access.
        nonadaptive_share: fraction of the holes non-adaptive flows may
            collectively borrow beyond their reservations (0..1).
    """

    __slots__ = ("adaptive_flows", "nonadaptive_share")

    def __init__(
        self,
        capacity: float,
        thresholds: Mapping[int, float],
        headroom: float,
        adaptive_flows: Iterable[int],
        nonadaptive_share: float = 0.25,
    ) -> None:
        super().__init__(capacity, thresholds, headroom)
        if not 0.0 <= nonadaptive_share <= 1.0:
            raise ConfigurationError(
                f"nonadaptive_share must be in [0, 1], got {nonadaptive_share}"
            )
        self.adaptive_flows = frozenset(adaptive_flows)
        self.nonadaptive_share = float(nonadaptive_share)

    def is_adaptive(self, flow_id: int) -> bool:
        return flow_id in self.adaptive_flows

    def try_admit(self, flow_id: int, size: float) -> bool:
        """The adaptivity bar; a packet that clears it also clears the
        (never stricter) inherited test, which then charges it."""
        if size > 0 and not self._admits(flow_id, size):
            return False
        return super().try_admit(flow_id, size)

    def _admits(self, flow_id: int, size: float) -> bool:
        occupancy, threshold = self.occupancy(flow_id), self.threshold(flow_id)
        if occupancy + size <= threshold:
            # Reserved traffic is always served while space remains,
            # independent of adaptivity — reservations are sacred.
            return self.holes + self.headroom >= size
        excess_after = occupancy - threshold + size
        if self.is_adaptive(flow_id):
            return size <= self.holes and excess_after <= self.holes
        allowance = self.nonadaptive_share * self.holes
        return size <= allowance and excess_after <= allowance
