"""Scheme registry: build (scheduler, buffer manager) pairs.

The paper evaluates combinations of a scheduling discipline (FIFO, WFQ,
or the k-queue hybrid) with a buffer policy (none, fixed thresholds, or
headroom/holes sharing).  :func:`build_scheme` constructs any combination
for a given flow set, buffer size and link rate, applying the paper's
threshold formulas throughout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.hybrid_opt import (
    QueueRequirement,
    hybrid_min_buffers,
    queue_rates,
)
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.hybrid import HybridBufferManager
from repro.core.shared_headroom import SharedHeadroomManager
from repro.core.tail_drop import TailDropManager
from repro.core.thresholds import compute_thresholds, hybrid_flow_threshold
from repro.errors import ConfigurationError
from repro.sched.base import Scheduler
from repro.sched.fifo import FIFOScheduler
from repro.sched.hybrid import HybridScheduler, validate_grouping
from repro.sched.scfq import SCFQScheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.traffic.profiles import FlowSpec
from repro.units import mbytes

__all__ = ["Scheme", "SchemeBuild", "build_scheme", "DEFAULT_HEADROOM"]

#: The paper's Section-3.3 headroom choice: "we first choose a headroom of
#: H = 2 MBytes".
DEFAULT_HEADROOM = mbytes(2.0)


class Scheme(enum.Enum):
    """The scheduler x buffer-policy combinations under study."""

    FIFO_NONE = "FIFO (no mgmt)"
    WFQ_NONE = "WFQ (no mgmt)"
    FIFO_THRESHOLD = "FIFO + thresholds"
    WFQ_THRESHOLD = "WFQ + thresholds"
    FIFO_SHARING = "FIFO + sharing"
    WFQ_SHARING = "WFQ + sharing"
    SCFQ_THRESHOLD = "SCFQ + thresholds"
    SCFQ_SHARING = "SCFQ + sharing"
    HYBRID_THRESHOLD = "Hybrid + thresholds"
    HYBRID_SHARING = "Hybrid + sharing"

    @classmethod
    def named(cls, name: str) -> "Scheme":
        """The member called ``name``, as spec and scenario files spell it."""
        if name not in cls.__members__:
            raise ConfigurationError(
                f"unknown scheme {name!r}; valid: " + ", ".join(cls.__members__)
            )
        return cls[name]

    @property
    def is_hybrid(self) -> bool:
        return self in (Scheme.HYBRID_THRESHOLD, Scheme.HYBRID_SHARING)


@dataclass
class SchemeBuild:
    """A constructed scheduler/manager pair plus derived configuration."""

    scheme: Scheme
    scheduler: Scheduler
    manager: object
    thresholds: dict[int, float]
    queue_rates: tuple[float, ...] | None = None
    queue_buffers: tuple[float, ...] | None = None


def _flow_profiles(flows: Sequence[FlowSpec]) -> dict[int, tuple[float, float]]:
    return {flow.flow_id: flow.profile for flow in flows}


def _wfq_weights(flows: Sequence[FlowSpec]) -> dict[int, float]:
    """WFQ weights: "the token rate is used to determine the weight"."""
    return {flow.flow_id: flow.token_rate for flow in flows}


def _build_hybrid(
    sim: Simulator,
    scheme: Scheme,
    flows: Sequence[FlowSpec],
    buffer_size: float,
    link_rate: float,
    headroom: float,
    groups: Sequence[Sequence[int]],
) -> SchemeBuild:
    class_of = validate_grouping(groups)
    by_id = {flow.flow_id: flow for flow in flows}
    missing = set(by_id) - set(class_of)
    if missing:
        raise ConfigurationError(f"flows not covered by grouping: {sorted(missing)}")

    requirements = []
    for group in groups:
        sigma_hat = sum(by_id[flow_id].bucket for flow_id in group)
        rho_hat = sum(by_id[flow_id].token_rate for flow_id in group)
        requirements.append(QueueRequirement(sigma_hat=sigma_hat, rho_hat=rho_hat))

    rates = queue_rates(requirements, link_rate)
    min_buffers = hybrid_min_buffers(requirements, link_rate)
    total_min = sum(min_buffers)
    # Partition the available buffer in proportion to the analytical
    # minimum requirements (Section 4.2).
    queue_buffers = [buffer_size * b / total_min for b in min_buffers]

    scheduler = HybridScheduler(sim, link_rate, groups, rates)
    managers = []
    thresholds: dict[int, float] = {}
    for class_id, group in enumerate(groups):
        rho_hat = requirements[class_id].rho_hat
        queue_buffer = queue_buffers[class_id]
        group_thresholds = {
            flow_id: hybrid_flow_threshold(
                by_id[flow_id].bucket, by_id[flow_id].token_rate, rho_hat, queue_buffer
            )
            for flow_id in group
        }
        thresholds.update(group_thresholds)
        if scheme is Scheme.HYBRID_SHARING:
            managers.append(
                SharedHeadroomManager(
                    queue_buffer,
                    group_thresholds,
                    headroom * queue_buffer / buffer_size,
                )
            )
        else:
            managers.append(FixedThresholdManager(queue_buffer, group_thresholds))
    manager = HybridBufferManager(class_of, managers)
    return SchemeBuild(
        scheme=scheme,
        scheduler=scheduler,
        manager=manager,
        thresholds=thresholds,
        queue_rates=tuple(rates),
        queue_buffers=tuple(queue_buffers),
    )


def build_scheme(
    sim: Simulator,
    scheme: Scheme,
    flows: Sequence[FlowSpec],
    buffer_size: float,
    link_rate: float,
    headroom: float = DEFAULT_HEADROOM,
    groups: Sequence[Sequence[int]] | None = None,
) -> SchemeBuild:
    """Construct the scheduler and buffer manager for a scheme.

    Args:
        sim: simulation engine (WFQ and the hybrid read its clock).
        scheme: which combination to build.
        flows: the flow population (reservations define thresholds and
            WFQ weights).
        buffer_size: total buffer ``B`` in bytes.
        link_rate: ``R`` in bytes/second.
        headroom: the sharing schemes' ``H`` in bytes.
        groups: flow grouping, required for hybrid schemes.
    """
    if buffer_size <= 0:
        raise ConfigurationError(f"buffer size must be positive, got {buffer_size}")
    if scheme.is_hybrid:
        if groups is None:
            raise ConfigurationError(f"{scheme} requires a flow grouping")
        return _build_hybrid(sim, scheme, flows, buffer_size, link_rate, headroom, groups)

    profiles = _flow_profiles(flows)
    thresholds = compute_thresholds(profiles, buffer_size, link_rate)

    if scheme in (Scheme.FIFO_NONE, Scheme.FIFO_THRESHOLD, Scheme.FIFO_SHARING):
        scheduler: Scheduler = FIFOScheduler()
    elif scheme in (Scheme.SCFQ_THRESHOLD, Scheme.SCFQ_SHARING):
        scheduler = SCFQScheduler(_wfq_weights(flows))
    else:
        scheduler = WFQScheduler(sim, link_rate, _wfq_weights(flows))

    if scheme in (Scheme.FIFO_NONE, Scheme.WFQ_NONE):
        manager: object = TailDropManager(buffer_size)
    elif scheme in (Scheme.FIFO_THRESHOLD, Scheme.WFQ_THRESHOLD, Scheme.SCFQ_THRESHOLD):
        manager = FixedThresholdManager(buffer_size, thresholds)
    else:
        manager = SharedHeadroomManager(buffer_size, thresholds, headroom)

    return SchemeBuild(scheme=scheme, scheduler=scheduler, manager=manager, thresholds=thresholds)
