"""Hybrid scheduler: WFQ across a small number of FIFO class queues.

Section 4 of the paper replaces the single FIFO queue with ``k`` FIFO
queues served by a WFQ scheduler.  Each queue aggregates a group of flows
and is guaranteed an aggregate rate ``R_i`` (eq. 16); inside each queue the
buffer-management technique provides per-flow guarantees.

Scheduling-wise this is exactly WFQ where the "flows" are the classes, so
:class:`HybridScheduler` *is* a :class:`repro.sched.wfq.WFQScheduler` whose
scheduling key comes from the flow-to-class table: a packet reaches its
class queue through the one WFQ ``enqueue`` body, with nothing wrapped
around it.  Packets of the same class are served FIFO because WFQ keeps a
FIFO queue per key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.sched.wfq import WFQScheduler

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

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


class HybridScheduler(WFQScheduler):
    """WFQ over ``k`` FIFO queues, one per flow group.

    Args:
        sim: the simulator whose clock virtual time follows.
        link_rate: output link rate in bytes/second.
        groups: sequence of flow-id groups; group ``i`` forms class ``i``.
        class_rates: rate ``R_i`` (bytes/second) guaranteed to each class;
            used as the WFQ weight of the class.  Must align with
            ``groups``.
    """

    __slots__ = ("groups", "class_rates")

    def __init__(
        self,
        sim: Simulator,
        link_rate: float,
        groups: Sequence[Sequence[int]],
        class_rates: Sequence[float],
    ) -> None:
        if len(class_rates) != len(groups):
            raise ConfigurationError(
                f"got {len(class_rates)} class rates for {len(groups)} groups"
            )
        self.groups = [tuple(group) for group in groups]
        self.class_rates = tuple(float(rate) for rate in class_rates)
        super().__init__(
            sim, link_rate, dict(enumerate(self.class_rates)), validate_grouping(groups)
        )
