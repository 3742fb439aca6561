"""Typed trace events.

Each event is a frozen, slotted dataclass with a class-level ``kind``
tag; the tag is what trace files, filters and the CLI use to name the
event type.  All times are simulation seconds, all sizes are bytes —
the library's canonical units.

The schema is versioned by :data:`TRACE_SCHEMA`: readers reject trace
files written under a different tag instead of misinterpreting them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from repro.errors import ConfigurationError

__all__ = [
    "TRACE_SCHEMA",
    "EVENT_TYPES",
    "EnqueueEvent",
    "DropEvent",
    "DepartEvent",
    "ThresholdCrossEvent",
    "HeadroomEvent",
    "ReprovisionEvent",
    "PoolEvent",
    "HeapCompactEvent",
    "SampleEvent",
    "ViolationEvent",
    "event_to_dict",
    "event_from_dict",
]

#: Version tag written into every JSONL trace header.  Bump whenever an
#: event gains/loses a field or changes meaning.
#:
#: v2: packet- and buffer-level events carry a ``node`` label so traces
#: of multi-node scenarios (:mod:`repro.net`, the experiments fabric)
#: attribute every event to the hop that produced it.  Single-port runs
#: leave it empty.
#:
#: v3: live reprovisioning adds ``reprovision`` (a flow's threshold was
#: changed or withdrawn at run time) and ``pool`` (a node's buffer-pool
#: split changed), making the pool-consistency invariant (RPR206)
#: auditable from a trace.
#:
#: v4: the telemetry/conformance layer adds ``sample`` (one periodic
#: sim-time measurement mirrored from a :mod:`repro.obs.timeline`
#: sampler) and ``violation`` (a :mod:`repro.obs.monitor` finding: an
#: observed quantity exceeded its closed-form bound).
#:
#: v5: added a ``bucket-resize`` housekeeping kind for a second
#: event-queue implementation.  The kind left with that implementation;
#: traces of heap-queue runs never contained it, so the tag stays.
TRACE_SCHEMA = "repro-trace-v5"


@dataclass(frozen=True, slots=True)
class EnqueueEvent:
    """A packet was admitted and handed to the scheduler.

    Emitted by the scheduler (:meth:`~repro.sched.base.Scheduler.enqueue`),
    so ``backlog`` is the queue length *after* the insert.  ``node``
    identifies the emitting hop in multi-node runs ('' for single-port).
    """

    kind: ClassVar[str] = "enqueue"
    time: float
    flow_id: int
    size: float
    backlog: int
    node: str = ""


@dataclass(frozen=True, slots=True)
class DropEvent:
    """The buffer manager rejected a packet.

    ``reason`` classifies the rejection: ``buffer-full`` (no space at
    all), ``threshold`` (fixed per-flow threshold), ``dynamic-threshold``,
    ``shared-buffer`` (holes/headroom exhausted for this flow), ``red`` /
    ``fred`` (probabilistic early drop), or ``policy`` for managers that
    do not classify further.  ``node`` names the dropping hop in
    multi-node runs ('' for single-port).
    """

    kind: ClassVar[str] = "drop"
    time: float
    flow_id: int
    size: float
    reason: str
    node: str = ""


@dataclass(frozen=True, slots=True)
class DepartEvent:
    """A packet finished transmission and left the buffer."""

    kind: ClassVar[str] = "depart"
    time: float
    flow_id: int
    size: float
    delay: float
    node: str = ""


@dataclass(frozen=True, slots=True)
class ThresholdCrossEvent:
    """A flow's occupancy crossed its admission threshold.

    ``direction`` is ``up`` when an admission brought the occupancy up
    to (or past) the threshold and ``down`` when a departure dropped it
    back below — admission caps occupancy at exactly the threshold, so
    "reached" counts as crossed.  ``occupancy`` is the value *after* the
    transition.
    """

    kind: ClassVar[str] = "threshold"
    time: float
    flow_id: int
    occupancy: float
    threshold: float
    direction: str
    node: str = ""


@dataclass(frozen=True, slots=True)
class HeadroomEvent:
    """The sharing scheme's headroom/holes split changed (Section 3.3)."""

    kind: ClassVar[str] = "headroom"
    time: float
    headroom: float
    holes: float
    node: str = ""


@dataclass(frozen=True, slots=True)
class ReprovisionEvent:
    """A flow's buffer threshold changed while the run was live.

    Emitted by managers with per-flow thresholds when
    ``reprovision``/``retire`` is called on them (churn reclamation,
    online rescale).  ``threshold`` is the value now in force —
    ``0.0`` after a retirement — and ``previous`` the value it
    replaced.  The change is drain-safe: packets already queued above
    a shrunken threshold depart normally and are never retro-dropped.
    """

    kind: ClassVar[str] = "reprovision"
    time: float
    flow_id: int
    threshold: float
    previous: float
    node: str = ""


@dataclass(frozen=True, slots=True)
class PoolEvent:
    """A node's buffer-pool split changed (reserve/retire/reprovision).

    Snapshot of the :class:`~repro.core.pool.BufferPool` accounting
    after the transition.  The pool-consistency invariant (RPR206)
    requires ``reserved + headroom + holes == capacity`` at every such
    point, which is what makes reclamation auditable from a trace.
    """

    kind: ClassVar[str] = "pool"
    time: float
    reserved: float
    headroom: float
    holes: float
    capacity: float
    flows: int
    node: str = ""


@dataclass(frozen=True, slots=True)
class HeapCompactEvent:
    """The engine rebuilt its event structure to purge cancelled events.

    Emitted by :class:`~repro.sim.equeue.EventQueue` when cancelled
    entries outnumber live ones in a non-trivial heap and it re-heapifies
    the survivors in place.
    """

    kind: ClassVar[str] = "compact"
    time: float
    removed: int
    remaining: int


@dataclass(frozen=True, slots=True)
class SampleEvent:
    """One periodic sim-time measurement of a named series.

    Mirrored into the trace stream by a
    :class:`~repro.obs.timeline.Timeline` sampler when a sink is
    attached to it, so a single trace file can interleave packet events
    with the coarser telemetry cadence.  ``series`` names the measured
    quantity (e.g. ``occupancy``, ``pool.headroom``); ``node`` is the
    link label ('' for single-port runs).
    """

    kind: ClassVar[str] = "sample"
    time: float
    series: str
    value: float
    node: str = ""


@dataclass(frozen=True, slots=True)
class ViolationEvent:
    """A monitored quantity exceeded its closed-form bound.

    Emitted by the :class:`~repro.obs.monitor.ConformanceMonitor` when
    an observed value contradicts the paper's guarantees: a conformant
    flow was dropped, a flow's occupancy exceeded its provisioned
    threshold (eq. 5/9), or a delay exceeded the analytic bound.
    ``check`` names the violated guarantee; ``observed``/``bound`` give
    the numbers.  ``flow_id`` is ``-1`` for node-level findings.
    """

    kind: ClassVar[str] = "violation"
    time: float
    check: str
    severity: str
    observed: float
    bound: float
    flow_id: int = -1
    node: str = ""


#: kind tag -> event class, the vocabulary of a trace stream.
EVENT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        EnqueueEvent,
        DropEvent,
        DepartEvent,
        ThresholdCrossEvent,
        HeadroomEvent,
        ReprovisionEvent,
        PoolEvent,
        HeapCompactEvent,
        SampleEvent,
        ViolationEvent,
    )
}

#: Per-class field-name cache so serialization avoids dataclasses.asdict
#: (which deep-copies) on the trace hot path.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in EVENT_TYPES.values()
}


def event_to_dict(event) -> dict:
    """JSON-friendly form of any trace event (``kind`` key first)."""
    names = _FIELD_NAMES.get(type(event))
    if names is None:
        raise ConfigurationError(f"not a trace event: {event!r}")
    payload = {"kind": type(event).kind}
    for name in names:
        payload[name] = getattr(event, name)
    return payload


def event_from_dict(raw: dict):
    """Rebuild a typed event from :func:`event_to_dict` output."""
    kind = raw.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown event kind {kind!r}; valid: {sorted(EVENT_TYPES)}"
        )
    kwargs = {name: raw[name] for name in _FIELD_NAMES[cls]}
    return cls(**kwargs)
