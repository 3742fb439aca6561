"""The *measure* stage: plain serializable measurement records.

A :class:`ScenarioRecord` is what one executed
:class:`~repro.experiments.campaign.job.ScenarioJob` leaves behind: a
:class:`LinkRecord` per link (per-flow byte counters, thresholds, queue
split), the end-to-end delivery counters and delay summaries, and the
churn report when the scenario had dynamic flows — plain data, no live
:class:`~repro.metrics.collector.StatsCollector`, no open histograms.
That makes records picklable (so they can cross a process pool) and
JSON-serializable (so they can live in the on-disk cache), and a record
rebuilt from either representation compares equal to the original.

A record answers the one-link measurement API
(:class:`~repro.metrics.collector.LinkMeasures`: ``utilization()``,
``loss_fraction()``, ``flow_stats`` …) the figures and metric strings
are written against, as the live result does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.experiments.campaign.job import CAMPAIGN_SCHEMA
from repro.experiments.fabric.churn import ChurnReport
from repro.metrics.collector import FlowStats, LinkMeasures, accounted
from repro.metrics.records import (
    DelaySummary,
    flow_stats_from_dict,
    flow_stats_to_dict,
)
from repro.net.topology import DeliverySink
from repro.obs.telemetry import JobTelemetry

if TYPE_CHECKING:  # circular at runtime: the fabric builds records
    from repro.experiments.fabric.build import FabricResult, LinkResult

__all__ = ["ScenarioRecord"]


def _dump_by_flow(table: dict, dump: Callable) -> dict:
    """A flow-keyed table as JSON: string keys, flow-id order."""
    return {str(i): dump(table[i]) for i in sorted(table)}


def _load_by_flow(raw: dict, load: Callable) -> dict:
    """The inverse of :func:`_dump_by_flow`."""
    return {i: load(raw[str(i)]) for i in sorted(map(int, raw))}


def _floats(values) -> list[float] | None:
    return None if values is None else [float(value) for value in values]


@dataclass(frozen=True)
class LinkRecord:
    """Serializable per-link measurements over ``[warmup, sim_time]``."""

    rate: float
    buffer_size: float
    flow_stats: dict[int, FlowStats] = field(default_factory=dict)
    thresholds: dict[int, float] = field(default_factory=dict)
    queue_rates: tuple[float, ...] | None = None
    queue_buffers: tuple[float, ...] | None = None

    @staticmethod
    def from_result(link: "LinkResult") -> "LinkRecord":
        """One live link as plain data, in canonical (sorted) order."""
        return LinkRecord(
            rate=link.rate,
            buffer_size=link.buffer_size,
            flow_stats=link.flow_stats,
            thresholds={i: link.thresholds[i] for i in sorted(link.thresholds)},
            queue_rates=link.queue_rates,
            queue_buffers=link.queue_buffers,
        )

    def to_dict(self) -> dict:
        return {
            "rate": float(self.rate),
            "buffer_size": float(self.buffer_size),
            "flow_stats": _dump_by_flow(self.flow_stats, flow_stats_to_dict),
            "thresholds": _dump_by_flow(self.thresholds, float),
            "queue_rates": _floats(self.queue_rates),
            "queue_buffers": _floats(self.queue_buffers),
        }

    @staticmethod
    def from_dict(raw: dict) -> "LinkRecord":
        queue_rates = raw.get("queue_rates")
        queue_buffers = raw.get("queue_buffers")
        return LinkRecord(
            rate=float(raw["rate"]),
            buffer_size=float(raw["buffer_size"]),
            flow_stats=_load_by_flow(raw["flow_stats"], flow_stats_from_dict),
            thresholds=_load_by_flow(raw["thresholds"], float),
            queue_rates=None if queue_rates is None else tuple(queue_rates),
            queue_buffers=None if queue_buffers is None else tuple(queue_buffers),
        )


@dataclass(frozen=True)
class ScenarioRecord(LinkMeasures):
    """Measurements of one simulation run, as plain data.

    ``delivery_*`` counters cover packets that reached the end of a
    multi-link route (whole run, like the live
    :class:`~repro.net.topology.DeliverySink`; empty on a one-link
    record, whose link statistics already are end to end).  ``delays``
    holds end-to-end delay summaries over the measurement window when
    the job recorded histograms.  ``churn`` carries the blocking split
    when the scenario had dynamic flows.
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
    #: Execution telemetry, attached by the campaign runner.  Excluded
    #: from equality and from :meth:`to_dict`: telemetry describes *how*
    #: a record was produced, not *what* was measured, so cached, serial
    #: and parallel runs stay byte-identical.
    telemetry: JobTelemetry | None = field(default=None, compare=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_result(result: "FabricResult", job_digest: str) -> "ScenarioRecord":
        """Extract the serializable measurements from a live result.

        Delay percentiles are pulled out of the end-to-end collector's
        histograms eagerly (when the run recorded them), which is what
        frees the record from referencing the live collector.
        """
        scenario = result.scenario
        # One link: nothing was delivered past it.
        sink = DeliverySink() if result.delivery is None else result.delivery
        collector = result.end_to_end
        delays: dict[int, DelaySummary] = {}
        if collector.delay_histograms:
            static_ids = (routed.spec.flow_id for routed in scenario.flows)
            for flow_id in accounted(collector.flows, static_ids):
                delays[flow_id] = DelaySummary.from_histogram(
                    collector.delay_histogram(flow_id)
                )
        return ScenarioRecord(
            job_digest=job_digest,
            sim_time=scenario.sim_time,
            warmup=result.warmup,
            seed=scenario.seed,
            events_processed=result.events_processed,
            links={
                label: LinkRecord.from_result(link)
                for label, link in sorted(result.links.items())
            },
            delivery_packets=dict(sorted(sink.packets.items())),
            delivery_bytes=dict(sorted(sink.bytes.items())),
            delivery_delay_max=dict(sorted(sink.delay_max.items())),
            delays=delays,
            churn=result.churn,
        )

    # -- any-shape measurement API -------------------------------------------

    def blocking_probability(self) -> float:
        """Churn blocking probability; zero without churn."""
        if self.churn is None:
            return 0.0
        return self.churn.blocking_probability

    def delay_percentile(self, flow_id: int, q: float) -> float:
        """End-to-end delay percentile from the eagerly-extracted grid.

        Requires the job to have been run with ``delay_histograms=True``;
        only the :data:`~repro.metrics.records.DELAY_PERCENTILES` grid is
        available on a record.
        """
        if not self.delays:
            raise ConfigurationError("scenario was run without delay histograms")
        summary = self.delays.get(flow_id)
        if summary is None:
            raise ConfigurationError(f"no delay summary for flow {flow_id}")
        return summary.percentile(q)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`."""
        return {
            "schema": CAMPAIGN_SCHEMA,
            "job_digest": self.job_digest,
            "sim_time": float(self.sim_time),
            "warmup": float(self.warmup),
            "seed": int(self.seed),
            "events_processed": int(self.events_processed),
            "links": {
                label: self.links[label].to_dict() for label in sorted(self.links)
            },
            "delivery_packets": _dump_by_flow(self.delivery_packets, int),
            "delivery_bytes": _dump_by_flow(self.delivery_bytes, float),
            "delivery_delay_max": _dump_by_flow(self.delivery_delay_max, float),
            "delays": _dump_by_flow(self.delays, DelaySummary.to_dict),
            "churn": None if self.churn is None else self.churn.to_dict(),
        }

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        schema = raw.get("schema")
        if schema != CAMPAIGN_SCHEMA:
            raise ConfigurationError(
                f"record schema mismatch: got {schema!r}, expected "
                f"{CAMPAIGN_SCHEMA!r}"
            )
        churn = raw.get("churn")
        return ScenarioRecord(
            job_digest=str(raw["job_digest"]),
            sim_time=float(raw["sim_time"]),
            warmup=float(raw["warmup"]),
            seed=int(raw["seed"]),
            events_processed=int(raw["events_processed"]),
            links={
                label: LinkRecord.from_dict(entry)
                for label, entry in sorted(raw["links"].items())
            },
            delivery_packets=_load_by_flow(raw["delivery_packets"], int),
            delivery_bytes=_load_by_flow(raw["delivery_bytes"], float),
            delivery_delay_max=_load_by_flow(raw["delivery_delay_max"], float),
            delays=_load_by_flow(raw["delays"], DelaySummary.from_dict),
            churn=None if churn is None else ChurnReport.from_dict(churn),
        )
