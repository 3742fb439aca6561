"""Buffer management for the hybrid architecture (Section 4.2).

In the hybrid system the total buffer ``B`` is split across the ``k``
class queues in proportion to their analytical minimum requirements
(eq. 18), and each queue runs its own manager — fixed-partition or the
headroom/holes sharing scheme — over its partition ``B_i`` with per-flow
thresholds ``sigma_j + (rho_j / rho_hat_i) * B_i``.

:class:`HybridBufferManager` composes one sub-manager per class and
presents the single-manager interface the output port expects.  Because
the partitions are physically disjoint, admission in one class never
depends on occupancy in another — which is what makes the hybrid system's
guarantees per-queue applications of the single-queue results.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.occupancy import BufferManager
from repro.errors import ConfigurationError

__all__ = ["HybridBufferManager"]


class HybridBufferManager:
    """Composite manager delegating to one sub-manager per flow class.

    Args:
        class_of: mapping flow id -> class index.
        managers: one :class:`BufferManager` per class, index-aligned.
    """

    __slots__ = ("class_of", "managers", "capacity", "_by_flow")

    #: Per-flow thresholds live in the class sub-managers; reprovision
    #: and retire delegate, so the composite honours the same contract.
    has_flow_thresholds = True

    def __init__(self, class_of: Mapping[int, int], managers: Sequence[BufferManager]):
        if not managers:
            raise ConfigurationError("hybrid manager needs at least one sub-manager")
        self.class_of = dict(class_of)
        self.managers = list(managers)
        self.capacity = sum(manager.capacity for manager in managers)
        #: flow id -> its class manager, for the per-packet path.  Built
        #: once: ``class_of`` never changes (``retire`` keeps the entry).
        self._by_flow: dict[int, BufferManager] = {}
        for flow_id, class_id in self.class_of.items():
            if not 0 <= class_id < len(managers):
                raise ConfigurationError(
                    f"flow {flow_id} mapped to class {class_id}, "
                    f"but only {len(managers)} managers supplied"
                )
            self._by_flow[flow_id] = self.managers[class_id]

    def _manager_for(self, flow_id: int) -> BufferManager:
        try:
            return self._by_flow[flow_id]
        except KeyError:
            raise ConfigurationError(f"flow {flow_id} not assigned to any class") from None

    def attach_trace(self, sink, clock, node: str = "") -> None:
        """Propagate the trace sink to every class sub-manager."""
        for manager in self.managers:
            manager.attach_trace(sink, clock, node)

    def drop_reason(self, flow_id: int, size: float) -> str:
        """Classification comes from the class manager that rejected."""
        return self._manager_for(flow_id).drop_reason(flow_id, size)

    # The per-packet pair spells ``_manager_for`` out: one call less each way.

    def try_admit(self, flow_id: int, size: float) -> bool:
        """Admission is decided entirely by the flow's class manager."""
        try:
            manager = self._by_flow[flow_id]
        except KeyError:
            raise ConfigurationError(f"flow {flow_id} not assigned to any class") from None
        return manager.try_admit(flow_id, size)

    def on_depart(self, flow_id: int, size: float) -> None:
        try:
            manager = self._by_flow[flow_id]
        except KeyError:
            raise ConfigurationError(f"flow {flow_id} not assigned to any class") from None
        manager.on_depart(flow_id, size)

    def occupancy(self, flow_id: int) -> float:
        return self._manager_for(flow_id).occupancy(flow_id)

    def threshold(self, flow_id: int) -> float:
        """The threshold the flow's class manager applies to it."""
        return self._manager_for(flow_id).threshold(flow_id)

    def reprovision(self, flow_id: int, threshold: float) -> None:
        """Delegate the live threshold change to the flow's class manager.

        The class partitions are physically disjoint, so reprovisioning
        inside one class can never disturb another — the same argument
        that makes the hybrid guarantees per-queue applications of the
        single-queue results.
        """
        self._manager_for(flow_id).reprovision(flow_id, threshold)

    def retire(self, flow_id: int) -> None:
        """Withdraw the flow inside its class; the class mapping stays.

        Keeping the ``class_of`` entry is what makes retirement
        drain-safe here: packets of the retired flow still queued in the
        class partition must keep resolving to the same sub-manager
        until they depart.
        """
        self._manager_for(flow_id).retire(flow_id)

    @property
    def total_occupancy(self) -> float:
        return sum(manager.total_occupancy for manager in self.managers)

    @property
    def free_space(self) -> float:
        return self.capacity - self.total_occupancy
