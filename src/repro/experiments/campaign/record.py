"""The *measure* stage: plain serializable measurement records.

:class:`ScenarioRecord` is the campaign-side split of
:class:`~repro.experiments.runner.ScenarioResult`: the same measurement
API (throughput, utilization, loss, delay percentiles) over plain data —
no live :class:`~repro.metrics.collector.StatsCollector`, no open
histograms.  That makes records picklable (so they can cross a process
pool) and JSON-serializable (so they can live in the on-disk cache), and
a record rebuilt from either representation compares equal to the
original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.experiments.campaign.job import CAMPAIGN_SCHEMA
from repro.experiments.schemes import Scheme
from repro.metrics.collector import FlowStats, LinkMeasures
from repro.metrics.records import (
    DelaySummary,
    link_measurements,
    link_measurements_from_dict,
    link_measurements_to_dict,
)
from repro.obs.telemetry import JobTelemetry

if TYPE_CHECKING:  # circular at runtime: runner builds records
    from repro.experiments.runner import ScenarioResult

__all__ = ["ScenarioRecord"]


@dataclass(frozen=True)
class ScenarioRecord(LinkMeasures):
    """Measurements of one simulation run, as plain data.

    All byte counters cover the measurement window ``[warmup, sim_time]``.
    The measurement helpers mirror
    :class:`~repro.experiments.runner.ScenarioResult`, so metric callables
    written for live results work on records unchanged.
    """

    job_digest: str
    scheme: Scheme
    buffer_size: float
    link_rate: float
    sim_time: float
    warmup: float
    seed: int
    events_processed: int
    flow_stats: dict[int, FlowStats] = field(default_factory=dict)
    thresholds: dict[int, float] = field(default_factory=dict)
    queue_rates: tuple[float, ...] | None = None
    queue_buffers: tuple[float, ...] | None = None
    delays: dict[int, DelaySummary] = field(default_factory=dict)
    #: Execution telemetry, attached by the campaign runner.  Excluded
    #: from equality and from :meth:`to_dict`: telemetry describes *how*
    #: a record was produced, not *what* was measured, so cached, serial
    #: and parallel runs stay byte-identical.
    telemetry: JobTelemetry | None = field(default=None, compare=False)
    #: Per-job observability, attached when ``REPRO_MONITOR`` is set:
    #: the sim-time timeline summary and the conformance-monitor report
    #: (:class:`~repro.obs.timeline.TimelineSummary` /
    #: :class:`~repro.obs.monitor.MonitorReport`).  Treated exactly like
    #: telemetry — excluded from equality and serialization.
    timeline_summary: object | None = field(default=None, compare=False)
    monitor: object | None = field(default=None, compare=False)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_result(result: "ScenarioResult", job_digest: str) -> "ScenarioRecord":
        """Extract the serializable measurements from a live result.

        Delay percentiles are pulled out of the collector's histograms
        eagerly (when the run recorded them), which is what frees the
        record from referencing the live collector.
        """
        delays: dict[int, DelaySummary] = {}
        collector = result.collector
        if collector is not None and collector.delay_histograms:
            for flow_id in sorted(result.flow_stats):
                delays[flow_id] = DelaySummary.from_histogram(
                    collector.delay_histogram(flow_id)
                )
        return ScenarioRecord(
            job_digest=job_digest,
            scheme=result.scheme,
            buffer_size=result.buffer_size,
            link_rate=result.link_rate,
            sim_time=result.sim_time,
            warmup=result.warmup,
            seed=result.seed,
            events_processed=result.events_processed,
            **link_measurements(result),
            delays=delays,
        )

    # -- measurement API (mirrors ScenarioResult) --------------------------

    def delay_percentile(self, flow_id: int, q: float) -> float:
        """Per-flow delay percentile from the eagerly-extracted grid.

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
            "scheme": self.scheme.name,
            "buffer_size": float(self.buffer_size),
            "link_rate": float(self.link_rate),
            "sim_time": float(self.sim_time),
            "warmup": float(self.warmup),
            "seed": int(self.seed),
            "events_processed": int(self.events_processed),
            **link_measurements_to_dict(self),
            "delays": {
                str(i): self.delays[i].to_dict() for i in sorted(self.delays)
            },
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
        try:
            scheme = Scheme[raw["scheme"]]
        except KeyError:
            raise ConfigurationError(f"unknown scheme {raw.get('scheme')!r}") from None
        return ScenarioRecord(
            job_digest=str(raw["job_digest"]),
            scheme=scheme,
            buffer_size=float(raw["buffer_size"]),
            link_rate=float(raw["link_rate"]),
            sim_time=float(raw["sim_time"]),
            warmup=float(raw["warmup"]),
            seed=int(raw["seed"]),
            events_processed=int(raw["events_processed"]),
            **link_measurements_from_dict(raw),
            delays={
                int(i): DelaySummary.from_dict(entry)
                for i, entry in sorted(raw["delays"].items(), key=lambda kv: int(kv[0]))
            },
        )
