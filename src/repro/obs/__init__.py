"""repro.obs — structured observability for the simulator and campaigns.

Four cooperating layers, all opt-in and zero-cost when disabled:

* **event tracing** (:mod:`repro.obs.events`, :mod:`repro.obs.sink`) —
  typed, structured events emitted by the engine, the output port (every
  packet event) and buffer managers into a
  :class:`~repro.obs.sink.TraceSink`.  Components
  hold ``_sink = None`` by default and guard every emission with a single
  ``if self._sink is not None`` check, so untraced runs pay one pointer
  comparison per hook point and nothing else.
* **run telemetry** (:mod:`repro.obs.telemetry`) — per-job wall time,
  event counts, cache hits and worker ids recorded by the campaign
  pipeline and aggregated into a :class:`~repro.obs.telemetry.CampaignReport`.
* **sim-time timelines** (:mod:`repro.obs.timeline`) — a deterministic
  periodic sampler recording occupancy/headroom/pool/churn series into
  bounded rings, with JSONL export (``repro-timeline-v1``) and
  windowed reductions.
* **conformance monitoring** (:mod:`repro.obs.monitor`) — a live
  checker comparing observed drops, occupancy and delays against the
  paper's closed-form bounds, emitting structured
  :class:`~repro.obs.monitor.Violation` findings.

See ``docs/observability.md`` for the event schema and overhead numbers.
"""

from repro.obs.events import (
    EVENT_TYPES,
    DepartEvent,
    DropEvent,
    EnqueueEvent,
    HeadroomEvent,
    PoolEvent,
    ReprovisionEvent,
    SampleEvent,
    ThresholdCrossEvent,
    ViolationEvent,
    event_from_dict,
    event_to_dict,
)
from repro.obs.monitor import ConformanceMonitor, MonitorReport
from repro.obs.reader import filter_events, read_events, replay_flow_counts
from repro.obs.sink import JsonlSink, RingSink, TeeSink
from repro.obs.telemetry import CampaignReport, JobTelemetry
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    Timeline,
)

__all__ = [
    "EVENT_TYPES",
    "TIMELINE_SCHEMA",
    "CampaignReport",
    "ConformanceMonitor",
    "DepartEvent",
    "DropEvent",
    "EnqueueEvent",
    "HeadroomEvent",
    "JobTelemetry",
    "JsonlSink",
    "MonitorReport",
    "PoolEvent",
    "ReprovisionEvent",
    "RingSink",
    "SampleEvent",
    "ThresholdCrossEvent",
    "TeeSink",
    "Timeline",
    "ViolationEvent",
    "event_from_dict",
    "event_to_dict",
    "filter_events",
    "read_events",
    "replay_flow_counts",
]
