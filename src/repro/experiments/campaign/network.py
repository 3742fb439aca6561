"""Network scenarios as campaign citizens: jobs and records.

A :class:`NetworkJob` content-addresses a whole
:class:`~repro.experiments.fabric.NetworkScenario` — topology, routes,
churn and all — under its own schema tag, so fabric runs flow through
the same describe -> execute -> measure pipeline (deduplication, result
cache, process pools) as classic single-port jobs.  The classic
:data:`~repro.experiments.campaign.job.CAMPAIGN_SCHEMA` and its digests
are untouched: a network job can never collide with a single-port one.

:class:`NetworkRecord` is the serializable measurement: per-link flow
statistics and thresholds, end-to-end delivery statistics, and the
churn report with its blocking split.  Like
:class:`~repro.experiments.campaign.record.ScenarioRecord`, telemetry
is excluded from equality and serialization, so cached, serial and
parallel runs stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.experiments.fabric.churn import ChurnReport
from repro.experiments.fabric.scenario import NetworkScenario
from repro.metrics.collector import FlowStats
from repro.metrics.records import (
    DelaySummary,
    link_measurements,
    link_measurements_from_dict,
    link_measurements_to_dict,
)
from repro.obs.telemetry import JobTelemetry

if TYPE_CHECKING:  # circular at runtime: the fabric builds records
    from repro.experiments.fabric.build import FabricResult

__all__ = ["NETWORK_SCHEMA", "NetworkJob", "LinkRecord", "NetworkRecord"]

#: Version tag for network jobs and records.  Distinct from the classic
#: CAMPAIGN_SCHEMA so the two job families can share one cache directory
#: without ever colliding; bump on any layout change.
#:
#: v2: ``ChurnSpec`` gained the ``reclamation`` knob (serialized into
#: every churn scenario) and ``ChurnReport`` the ``blocked_unknown``
#: counter, changing both job and record layouts.
#:
#: v3: ``NetworkScenario`` lost its two execution-only fields (packet
#: pooling and event-queue selection; neither mechanism exists any more).
NETWORK_SCHEMA = "repro-campaign-net-v3"


@dataclass(frozen=True)
class NetworkJob:
    """One fully-specified fabric run, ready to execute anywhere."""

    scenario: NetworkScenario

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`."""
        return {"schema": NETWORK_SCHEMA, "scenario": self.scenario.to_dict()}

    @staticmethod
    def from_dict(raw: dict) -> "NetworkJob":
        schema = raw.get("schema")
        if schema != NETWORK_SCHEMA:
            raise ConfigurationError(
                f"job schema mismatch: got {schema!r}, expected {NETWORK_SCHEMA!r}"
            )
        return NetworkJob(scenario=NetworkScenario.from_dict(raw["scenario"]))

    def digest(self) -> str:
        """Stable SHA-256 content digest of the scenario description."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LinkRecord:
    """Serializable per-link measurements."""

    rate: float
    buffer_size: float
    flow_stats: dict[int, FlowStats] = field(default_factory=dict)
    thresholds: dict[int, float] = field(default_factory=dict)
    queue_rates: tuple[float, ...] | None = None
    queue_buffers: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "rate": float(self.rate),
            "buffer_size": float(self.buffer_size),
            **link_measurements_to_dict(self),
        }

    @staticmethod
    def from_dict(raw: dict) -> "LinkRecord":
        return LinkRecord(
            rate=float(raw["rate"]),
            buffer_size=float(raw["buffer_size"]),
            **link_measurements_from_dict(raw),
        )


@dataclass(frozen=True)
class NetworkRecord:
    """Measurements of one fabric run, as plain data.

    ``delivery_*`` counters cover packets that reached the end of their
    route (whole run, like the live
    :class:`~repro.net.topology.DeliverySink`); ``delays`` holds
    end-to-end delay summaries over the measurement window when the job
    recorded histograms.  ``churn`` carries the blocking split when the
    scenario had dynamic flows.
    """

    job_digest: str
    sim_time: float
    warmup: float
    seed: int
    events_processed: int
    links: dict[str, LinkRecord] = field(default_factory=dict)
    delivery_packets: dict[int, int] = field(default_factory=dict)
    delivery_bytes: dict[int, float] = field(default_factory=dict)
    delivery_delay_max: dict[int, float] = field(default_factory=dict)
    delays: dict[int, DelaySummary] = field(default_factory=dict)
    churn: ChurnReport | None = None
    #: Execution telemetry; excluded from equality and serialization so
    #: cached, serial and parallel runs stay byte-identical.
    telemetry: JobTelemetry | None = field(default=None, compare=False)
    #: Per-job observability (``REPRO_MONITOR``): timeline summary and
    #: conformance report, treated exactly like telemetry.
    timeline_summary: object | None = field(default=None, compare=False)
    monitor: object | None = field(default=None, compare=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_result(result: "FabricResult", job_digest: str) -> "NetworkRecord":
        """Extract serializable measurements from a live fabric result."""
        links = {
            label: LinkRecord(
                rate=link.rate,
                buffer_size=link.buffer_size,
                **link_measurements(link),
            )
            for label, link in sorted(result.links.items())
        }
        delivery_packets: dict[int, int] = {}
        delivery_bytes: dict[int, float] = {}
        delivery_delay_max: dict[int, float] = {}
        delays: dict[int, DelaySummary] = {}
        sink = result.delivery
        if sink is not None:
            delivery_packets = {i: sink.packets[i] for i in sorted(sink.packets)}
            delivery_bytes = {i: sink.bytes[i] for i in sorted(sink.bytes)}
            delivery_delay_max = {
                i: sink.delay_max[i] for i in sorted(sink.delay_max)
            }
        collector = result.delivery_collector
        if collector is not None and collector.delay_histograms:
            for flow_id in sorted(collector.flows):
                delays[flow_id] = DelaySummary.from_histogram(
                    collector.delay_histogram(flow_id)
                )
        return NetworkRecord(
            job_digest=job_digest,
            sim_time=result.scenario.sim_time,
            warmup=result.warmup,
            seed=result.scenario.seed,
            events_processed=result.events_processed,
            links=links,
            delivery_packets=delivery_packets,
            delivery_bytes=delivery_bytes,
            delivery_delay_max=delivery_delay_max,
            delays=delays,
            churn=result.churn,
        )

    # -- measurement API ---------------------------------------------------

    @property
    def duration(self) -> float:
        return self.sim_time - self.warmup

    def link(self, src: str, dst: str) -> LinkRecord:
        label = f"{src}->{dst}"
        record = self.links.get(label)
        if record is None:
            raise ConfigurationError(f"no link {label} in this record")
        return record

    def delivered_throughput(self, flow_id: int) -> float:
        """End-to-end delivered bytes/second over the whole run."""
        return self.delivery_bytes.get(flow_id, 0.0) / self.sim_time

    def blocking_probability(self) -> float:
        """Churn blocking probability; zero without churn."""
        if self.churn is None:
            return 0.0
        return self.churn.blocking_probability

    def delay_percentile(self, flow_id: int, q: float) -> float:
        """End-to-end delay percentile (needs ``delay_histograms=True``)."""
        if not self.delays:
            raise ConfigurationError("scenario was run without delay histograms")
        summary = self.delays.get(flow_id)
        if summary is None:
            raise ConfigurationError(f"no delay summary for flow {flow_id}")
        return summary.percentile(q)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`."""
        return {
            "schema": NETWORK_SCHEMA,
            "job_digest": self.job_digest,
            "sim_time": float(self.sim_time),
            "warmup": float(self.warmup),
            "seed": int(self.seed),
            "events_processed": int(self.events_processed),
            "links": {
                label: self.links[label].to_dict() for label in sorted(self.links)
            },
            "delivery_packets": {
                str(i): int(self.delivery_packets[i])
                for i in sorted(self.delivery_packets)
            },
            "delivery_bytes": {
                str(i): float(self.delivery_bytes[i])
                for i in sorted(self.delivery_bytes)
            },
            "delivery_delay_max": {
                str(i): float(self.delivery_delay_max[i])
                for i in sorted(self.delivery_delay_max)
            },
            "delays": {
                str(i): self.delays[i].to_dict() for i in sorted(self.delays)
            },
            "churn": None if self.churn is None else self.churn.to_dict(),
        }

    @staticmethod
    def from_dict(raw: dict) -> "NetworkRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        schema = raw.get("schema")
        if schema != NETWORK_SCHEMA:
            raise ConfigurationError(
                f"record schema mismatch: got {schema!r}, expected "
                f"{NETWORK_SCHEMA!r}"
            )
        churn = raw.get("churn")
        return NetworkRecord(
            job_digest=str(raw["job_digest"]),
            sim_time=float(raw["sim_time"]),
            warmup=float(raw["warmup"]),
            seed=int(raw["seed"]),
            events_processed=int(raw["events_processed"]),
            links={
                label: LinkRecord.from_dict(entry)
                for label, entry in sorted(raw["links"].items())
            },
            delivery_packets={
                int(i): int(value)
                for i, value in sorted(
                    raw["delivery_packets"].items(), key=lambda kv: int(kv[0])
                )
            },
            delivery_bytes={
                int(i): float(value)
                for i, value in sorted(
                    raw["delivery_bytes"].items(), key=lambda kv: int(kv[0])
                )
            },
            delivery_delay_max={
                int(i): float(value)
                for i, value in sorted(
                    raw["delivery_delay_max"].items(), key=lambda kv: int(kv[0])
                )
            },
            delays={
                int(i): DelaySummary.from_dict(entry)
                for i, entry in sorted(
                    raw["delays"].items(), key=lambda kv: int(kv[0])
                )
            },
            churn=None if churn is None else ChurnReport.from_dict(churn),
        )
