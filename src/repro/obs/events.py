"""Typed trace events.

Each event is an immutable tuple-backed record (a
:class:`typing.NamedTuple`) with a class-level ``kind`` tag; the tag is
what trace files, filters and the CLI use to name the event type.  All
times are simulation seconds, all sizes are bytes — the library's
canonical units.

A record's field order is API: it is the positional constructor the
emit sites use, the key order of :func:`event_to_dict` after ``"kind"``
and therefore the key order of every JSONL trace line.  Why a tuple and
not a frozen dataclass: a frozen dataclass pays one
``object.__setattr__`` per field to build, three times what the whole
tuple costs, and an attached run builds two events per packet.

The schema is versioned by :data:`TRACE_SCHEMA`: readers reject trace
files written under a different tag instead of misinterpreting them.
"""

from __future__ import annotations

from typing import NamedTuple

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
#: The ``compact`` kind (a heap rebuild purging cancelled events) left
#: with event cancellation; no program module ever cancelled, so no
#: trace the program wrote holds a ``compact`` line and the tag stays.
TRACE_SCHEMA = "repro-trace-v5"


class EnqueueEvent(NamedTuple):
    """A packet was admitted and handed to the scheduler.

    Emitted by the output port right after ``scheduler.enqueue``, so
    ``backlog`` is the queue length *after* the insert.  ``node``
    identifies the emitting hop in multi-node runs ('' for single-port).
    """

    kind = "enqueue"
    time: float
    flow_id: int
    size: float
    backlog: int
    node: str = ""


class DropEvent(NamedTuple):
    """The buffer manager rejected a packet.

    ``reason`` classifies the rejection: ``buffer-full`` (no space at
    all), ``threshold`` (fixed per-flow threshold), ``dynamic-threshold``,
    ``shared-buffer`` (holes/headroom exhausted for this flow), ``red`` /
    ``fred`` (probabilistic early drop), or ``policy`` for managers that
    do not classify further.  ``node`` names the dropping hop in
    multi-node runs ('' for single-port).
    """

    kind = "drop"
    time: float
    flow_id: int
    size: float
    reason: str
    node: str = ""


class DepartEvent(NamedTuple):
    """A packet finished transmission and left the buffer."""

    kind = "depart"
    time: float
    flow_id: int
    size: float
    delay: float
    node: str = ""


class ThresholdCrossEvent(NamedTuple):
    """A flow's occupancy crossed its admission threshold.

    ``direction`` is ``up`` when an admission brought the occupancy up
    to (or past) the threshold and ``down`` when a departure dropped it
    back below — admission caps occupancy at exactly the threshold, so
    "reached" counts as crossed.  ``occupancy`` is the value *after* the
    transition.
    """

    kind = "threshold"
    time: float
    flow_id: int
    occupancy: float
    threshold: float
    direction: str
    node: str = ""


class HeadroomEvent(NamedTuple):
    """The sharing scheme's headroom/holes split changed (Section 3.3)."""

    kind = "headroom"
    time: float
    headroom: float
    holes: float
    node: str = ""


class ReprovisionEvent(NamedTuple):
    """A flow's buffer threshold changed while the run was live.

    Emitted by managers with per-flow thresholds when
    ``reprovision``/``retire`` is called on them (churn reclamation,
    online rescale).  ``threshold`` is the value now in force —
    ``0.0`` after a retirement — and ``previous`` the value it
    replaced.  The change is drain-safe: packets already queued above
    a shrunken threshold depart normally and are never retro-dropped.
    """

    kind = "reprovision"
    time: float
    flow_id: int
    threshold: float
    previous: float
    node: str = ""


class PoolEvent(NamedTuple):
    """A node's buffer-pool split changed (reserve/retire/reprovision).

    Snapshot of the :class:`~repro.core.pool.BufferPool` accounting
    after the transition.  The pool-consistency invariant (RPR206)
    requires ``reserved + headroom + holes == capacity`` at every such
    point, which is what makes reclamation auditable from a trace.
    """

    kind = "pool"
    time: float
    reserved: float
    headroom: float
    holes: float
    capacity: float
    flows: int
    node: str = ""


class SampleEvent(NamedTuple):
    """One periodic sim-time measurement of a named series.

    Mirrored into the trace stream by a
    :class:`~repro.obs.timeline.Timeline` sampler when a sink is
    attached to it, so a single trace file can interleave packet events
    with the coarser telemetry cadence.  ``series`` names the measured
    quantity (e.g. ``occupancy``, ``pool.headroom``); ``node`` is the
    link label ('' for single-port runs).
    """

    kind = "sample"
    time: float
    series: str
    value: float
    node: str = ""


class ViolationEvent(NamedTuple):
    """A monitored quantity exceeded its closed-form bound.

    Emitted by the :class:`~repro.obs.monitor.ConformanceMonitor` when
    an observed value contradicts the paper's guarantees: a conformant
    flow was dropped, a flow's occupancy exceeded its provisioned
    threshold (eq. 5/9), or a delay exceeded the analytic bound.
    ``check`` names the violated guarantee; ``observed``/``bound`` give
    the numbers.  ``flow_id`` is ``-1`` for node-level findings.
    """

    kind = "violation"
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
        SampleEvent,
        ViolationEvent,
    )
}


def _same_kind_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _same_kind_ne(self, other) -> bool:
    return not _same_kind_eq(self, other)


# Tuples compare by value alone, which would make an enqueue equal a
# depart whose numbers coincide; an event equals only its own kind.
# Hashing stays the tuple's (equal events still hash equal).
for _cls in EVENT_TYPES.values():
    _cls.__eq__ = _same_kind_eq
    _cls.__ne__ = _same_kind_ne


def event_to_dict(event) -> dict:
    """JSON-friendly form of any trace event: ``kind``, then field order."""
    cls = type(event)
    if EVENT_TYPES.get(getattr(cls, "kind", None)) is not cls:
        raise ConfigurationError(f"not a trace event: {event!r}")
    payload = {"kind": cls.kind}
    payload.update(zip(cls._fields, event))
    return payload


def event_from_dict(raw: dict):
    """Rebuild a typed event from :func:`event_to_dict` output."""
    kind = raw.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown event kind {kind!r}; valid: {sorted(EVENT_TYPES)}"
        )
    return cls(*[raw[name] for name in cls._fields])
