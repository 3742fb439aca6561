"""Per-node buffer pools for live reprovisioning.

The paper sizes thresholds once (Prop. 2, ``T_i = sigma_i + rho_i B /
R``) and footnote 5 rescales them to fully partition the buffer — but
only at configuration time.  :class:`BufferPool` keeps that accounting
*live*: the capacity ``B`` of one node is split into

* per-flow **base reservations** — the Prop.-2 thresholds of the flows
  currently admitted, *before* any footnote-5 rescale;
* **headroom** — space reclaimed from departed (retired) flows,
  immediately available to admit new ones;
* **holes** — capacity that was never reserved in the first place.

The pool invariant, checked after every transition and auditable from a
trace via :class:`~repro.obs.events.PoolEvent` (invariant RPR206 in
``repro.check``)::

    sum(reservations) + headroom + holes == capacity

Admission against the live pool is exactly the paper's FIFO region test
(eq. 9): ``B >= R * sum(sigma) / (R - sum(rho))`` is algebraically
``sum(sigma_i + rho_i B / R) <= B``, i.e. the base reservations fit the
capacity.  What reclamation adds is the *online* footnote-5 rescale:
:meth:`effective_thresholds` scales the surviving population's base
reservations up to repartition the full buffer, so a departure's freed
share is redistributed instead of sitting idle until the next rebuild.

The pool holds no packets and never touches occupancy — enforcing the
effective thresholds is the buffer manager's job (see
:meth:`repro.core.occupancy.BufferManager.reprovision`), which keeps the
migration drain-safe: a shrinking threshold only binds future
admissions, queued packets depart normally.
"""

from __future__ import annotations

from repro.core.thresholds import scale_to_partition
from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import PoolEvent

__all__ = ["BufferPool"]

#: Slack for float comparisons over byte quantities; reservations are
#: sums of thresholds, so drift stays far below a byte.
_EPS = 1e-6


class BufferPool:
    """Live split of one node's buffer into reservations + headroom + holes.

    Args:
        capacity: total buffer size ``B`` in bytes.  Must be positive.
        node: node label stamped on emitted :class:`PoolEvent`\\ s.
    """

    __slots__ = (
        "capacity",
        "node",
        "reservations",
        "headroom",
        "holes",
        "_sink",
        "_clock",
    )

    def __init__(self, capacity: float, node: str = "") -> None:
        if capacity <= 0:
            raise ConfigurationError(
                f"pool capacity must be positive, got {capacity}"
            )
        self.capacity = float(capacity)
        self.node = node
        self.reservations: dict[int, float] = {}
        self.headroom = 0.0
        self.holes = self.capacity
        self._sink = None
        self._clock = None

    # -- accounting views -------------------------------------------------

    @property
    def reserved_total(self) -> float:
        """Sum of the base reservations currently held."""
        return sum(self.reservations.values())

    @property
    def available(self) -> float:
        """Unreserved capacity (holes + reclaimed headroom)."""
        return self.holes + self.headroom

    def can_reserve(self, amount: float) -> bool:
        """Would a reservation of ``amount`` bytes fit the pool now?

        This is the live form of the paper's eq.-9 buffer test: the new
        flow's base threshold must fit next to the reservations already
        held.
        """
        if amount < 0:
            raise ConfigurationError(
                f"reservation must be non-negative, got {amount}"
            )
        return amount <= self.holes + self.headroom + _EPS

    # -- transitions ------------------------------------------------------

    def reserve(self, flow_id: int, amount: float) -> None:
        """Carve ``amount`` bytes out of the pool for ``flow_id``.

        Takes holes first, then reclaimed headroom — never-reserved
        slack is spent before space that a future retirement could have
        returned to.
        """
        if flow_id in self.reservations:
            raise ConfigurationError(
                f"flow {flow_id} already holds a reservation in this pool"
            )
        if not self.can_reserve(amount):
            raise ConfigurationError(
                f"reservation of {amount} bytes for flow {flow_id} exceeds "
                f"the available pool ({self.available} of {self.capacity})"
            )
        from_holes = min(self.holes, amount)
        self.holes -= from_holes
        self.headroom -= amount - from_holes
        self.headroom = max(self.headroom, 0.0)
        self.reservations[flow_id] = float(amount)
        self._after_transition()

    def retire(self, flow_id: int) -> float:
        """Reclaim a flow's reservation into the headroom; returns it."""
        amount = self.reservations.pop(flow_id, None)
        if amount is None:
            raise ConfigurationError(
                f"flow {flow_id} holds no reservation in this pool"
            )
        self.headroom += amount
        self._after_transition()
        return amount

    def reprovision(self, flow_id: int, amount: float) -> None:
        """Resize an existing reservation in place.

        Growth is served holes-first like :meth:`reserve`; shrinkage
        returns the difference to the headroom like :meth:`retire`.
        """
        previous = self.reservations.get(flow_id)
        if previous is None:
            raise ConfigurationError(
                f"flow {flow_id} holds no reservation in this pool"
            )
        if amount < 0:
            raise ConfigurationError(
                f"reservation must be non-negative, got {amount}"
            )
        delta = amount - previous
        if delta > 0:
            if not self.can_reserve(delta):
                raise ConfigurationError(
                    f"growing flow {flow_id}'s reservation by {delta} bytes "
                    f"exceeds the available pool ({self.available})"
                )
            from_holes = min(self.holes, delta)
            self.holes -= from_holes
            self.headroom -= delta - from_holes
            self.headroom = max(self.headroom, 0.0)
        else:
            self.headroom -= delta
        self.reservations[flow_id] = float(amount)
        self._after_transition()

    def effective_thresholds(self) -> dict[int, float]:
        """Footnote-5 rescale of the surviving population's reservations.

        Base reservations are scaled up proportionally so they
        repartition the full capacity — the online analogue of
        :func:`repro.core.thresholds.compute_thresholds`.
        """
        return scale_to_partition(self.reservations, self.capacity)

    # -- consistency ------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`SimulationError` if the pool invariant broke."""
        if self.holes < -_EPS or self.headroom < -_EPS:
            raise SimulationError(
                f"pool counters went negative (holes={self.holes}, "
                f"headroom={self.headroom})"
            )
        total = self.reserved_total + self.headroom + self.holes
        if abs(total - self.capacity) > 1e-3:
            raise SimulationError(
                "pool invariant violated: reservations + headroom + holes "
                f"= {total}, capacity = {self.capacity}"
            )

    def _after_transition(self) -> None:
        self.check()
        if self._sink is not None:
            self._sink.emit(
                PoolEvent(
                    self._clock(),
                    self.reserved_total,
                    self.headroom,
                    self.holes,
                    self.capacity,
                    len(self.reservations),
                    self.node,
                )
            )

    # -- observability ----------------------------------------------------

    def attach_trace(self, sink, clock) -> None:
        """Emit a :class:`PoolEvent` into ``sink`` after each transition."""
        if sink is not None and clock is None:
            raise ConfigurationError("attach_trace needs a clock with its sink")
        self._sink = sink
        self._clock = clock
