"""Hybrid scheduler: WFQ across a small number of FIFO class queues.

Section 4 of the paper replaces the single FIFO queue with ``k`` FIFO
queues served by a WFQ scheduler.  Each queue aggregates a group of flows
and is guaranteed an aggregate rate ``R_i`` (eq. 16); inside each queue the
buffer-management technique provides per-flow guarantees.

Scheduling-wise this is exactly WFQ where the "flows" are the classes, so
the implementation wraps :class:`repro.sched.wfq.WFQScheduler` with a
packet-to-class classifier.  Packets of the same class are served FIFO
because WFQ keeps a FIFO queue per key.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.sched.base import Scheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.packet import Packet

__all__ = ["HybridScheduler", "validate_grouping"]


def validate_grouping(groups: Sequence[Sequence[int]]) -> dict[int, int]:
    """Check a flow grouping and return the flow-to-class map.

    Every flow id must appear in exactly one group and every group must be
    non-empty.
    """
    if not groups:
        raise ConfigurationError("grouping must contain at least one group")
    class_of: dict[int, int] = {}
    for class_id, group in enumerate(groups):
        if not group:
            raise ConfigurationError(f"group {class_id} is empty")
        for flow_id in group:
            if flow_id in class_of:
                raise ConfigurationError(f"flow {flow_id} appears in more than one group")
            class_of[flow_id] = class_id
    return class_of


class HybridScheduler(Scheduler):
    """WFQ over ``k`` FIFO queues, one per flow group.

    Args:
        clock: zero-argument callable returning the current time.
        link_rate: output link rate in bytes/second.
        groups: sequence of flow-id groups; group ``i`` forms class ``i``.
        class_rates: rate ``R_i`` (bytes/second) guaranteed to each class;
            used as the WFQ weight of the class.  Must align with
            ``groups``.
    """

    __slots__ = ("class_of", "groups", "class_rates", "_wfq")

    def __init__(
        self,
        clock: Callable[[], float],
        link_rate: float,
        groups: Sequence[Sequence[int]],
        class_rates: Sequence[float],
    ) -> None:
        if len(class_rates) != len(groups):
            raise ConfigurationError(
                f"got {len(class_rates)} class rates for {len(groups)} groups"
            )
        super().__init__()
        self.class_of: Mapping[int, int] = validate_grouping(groups)
        self.groups = [tuple(group) for group in groups]
        self.class_rates = tuple(float(rate) for rate in class_rates)
        weights = {class_id: rate for class_id, rate in enumerate(self.class_rates)}
        self._wfq = WFQScheduler(
            clock,
            link_rate,
            weights,
            classifier=lambda packet: self.class_of[packet.flow_id],
        )

    def enqueue(self, packet: Packet) -> None:
        if packet.flow_id not in self.class_of:
            raise ConfigurationError(f"flow {packet.flow_id} not assigned to any class")
        self._wfq.enqueue(packet)
        # The inner WFQ is never attached, so the packet is traced exactly
        # once — here, at the port-facing layer.
        if self._sink is not None:
            self._trace_enqueue(packet, len(self._wfq))

    def dequeue(self) -> Packet | None:
        return self._wfq.dequeue()

    def __len__(self) -> int:
        return len(self._wfq)

    @property
    def backlog_bytes(self) -> float:
        return self._wfq.backlog_bytes

    def class_queue_length(self, class_id: int) -> int:
        """Number of packets queued in the given class queue."""
        return self._wfq.queue_length(class_id)
