"""Run telemetry: what the campaign pipeline did, and how fast.

Every executed :class:`~repro.experiments.campaign.job.ScenarioJob` — a
single port or a tandem with churn, there is one job family — yields
one :class:`JobTelemetry`: wall time, simulated event count, cache
hit/miss, worker id.  A batch of telemetries aggregates into a
:class:`CampaignReport`: totals, the set of workers that contributed and
one wall-time :class:`~repro.metrics.histogram.LogHistogram` for the
campaign-wide percentiles.  Batches persist as JSONL
(:func:`~repro.experiments.campaign.cache.write_telemetry`, beside the
result cache) and load back through :func:`read_telemetry_dir`.

Telemetry is observability data, not measurement data: it never enters a
record's digest, cache entry, or serialized form, so byte-identical
results stay byte-identical whether a run was cached, serial or
parallel.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.metrics.histogram import LogHistogram

__all__ = [
    "TELEMETRY_SCHEMA",
    "DEFAULT_TELEMETRY_DIR",
    "JobTelemetry",
    "CampaignReport",
    "batch_digest",
    "read_telemetry_dir",
]

#: Version tag on every telemetry line; readers skip other versions.
TELEMETRY_SCHEMA = "repro-telemetry-v1"

#: Default location, next to the result cache it reports on.
DEFAULT_TELEMETRY_DIR = pathlib.Path("results") / "telemetry"


@dataclass(frozen=True)
class JobTelemetry:
    """Execution accounting for one job of one campaign run.

    Attributes:
        job_digest: content digest of the job this telemetry describes.
        wall_time: wall-clock seconds spent producing the record (cache
            hits report the lookup time, essentially zero).
        events: simulation events processed by the run (from the record,
            so cached jobs report the original run's count).
        cache_hit: True when the record came from the result cache.
        worker: OS process id that produced the record; distinguishes
            pool workers from the coordinating process.
        cancelled_pending: cancelled events still queued at end of run.
        compactions: queue rebuilds performed to purge cancelled events.

    The engine fields are additive to the v1 schema: old telemetry
    lines deserialize with the defaults below (and keys this version no
    longer writes are ignored), so mixed-generation telemetry
    directories keep aggregating.
    """

    job_digest: str
    wall_time: float
    events: int
    cache_hit: bool
    worker: int
    cancelled_pending: int = 0
    compactions: int = 0

    def to_dict(self) -> dict:
        return {
            "schema": TELEMETRY_SCHEMA,
            "job_digest": self.job_digest,
            "wall_time": float(self.wall_time),
            "events": int(self.events),
            "cache_hit": bool(self.cache_hit),
            "worker": int(self.worker),
            "cancelled_pending": int(self.cancelled_pending),
            "compactions": int(self.compactions),
        }

    @staticmethod
    def from_dict(raw: dict) -> "JobTelemetry":
        schema = raw.get("schema")
        if schema != TELEMETRY_SCHEMA:
            raise ConfigurationError(
                f"telemetry schema mismatch: got {schema!r}, "
                f"expected {TELEMETRY_SCHEMA!r}"
            )
        return JobTelemetry(
            job_digest=str(raw["job_digest"]),
            wall_time=float(raw["wall_time"]),
            events=int(raw["events"]),
            cache_hit=bool(raw["cache_hit"]),
            worker=int(raw["worker"]),
            cancelled_pending=int(raw.get("cancelled_pending", 0)),
            compactions=int(raw.get("compactions", 0)),
        )


class CampaignReport:
    """Aggregate view of a batch (or several batches) of job telemetry."""

    __slots__ = (
        "jobs",
        "cache_hits",
        "executed",
        "total_wall_time",
        "total_events",
        "_workers",
        "_wall",
        "_engine",
    )

    def __init__(self) -> None:
        self.jobs = 0
        self.cache_hits = 0
        self.executed = 0
        self.total_wall_time = 0.0
        self.total_events = 0
        self._workers: set[int] = set()
        #: Wall seconds per job, over every worker.
        self._wall = LogHistogram(lo=1e-4, hi=1e4, bins_per_decade=5)
        #: Engine accounting over *executed* jobs (a cache hit runs no
        #: engine).
        self._engine = {
            "jobs": 0,
            "events": 0,
            "wall_time": 0.0,
            "cancelled_pending": 0,
            "compactions": 0,
        }

    @staticmethod
    def from_telemetry(entries: Iterable[JobTelemetry]) -> "CampaignReport":
        report = CampaignReport()
        for entry in entries:
            report.add(entry)
        return report

    def add(self, entry: JobTelemetry) -> None:
        self.jobs += 1
        if entry.cache_hit:
            self.cache_hits += 1
        else:
            self.executed += 1
            engine = self._engine
            engine["jobs"] += 1
            engine["events"] += entry.events
            engine["wall_time"] += entry.wall_time
            engine["cancelled_pending"] += entry.cancelled_pending
            engine["compactions"] += entry.compactions
        self.total_wall_time += entry.wall_time
        self.total_events += entry.events
        self._workers.add(entry.worker)
        self._wall.record(max(entry.wall_time, 0.0))

    @property
    def engine(self) -> dict:
        """Engine totals over executed jobs (a copy).

        Sums ``jobs``, ``events``, ``wall_time``, ``cancelled_pending``
        and ``compactions`` over every entry with ``cache_hit`` false.
        """
        return dict(self._engine)

    @property
    def workers(self) -> list[int]:
        """Worker ids that contributed, sorted."""
        return sorted(self._workers)

    @property
    def hit_fraction(self) -> float:
        if self.jobs == 0:
            return 0.0
        return self.cache_hits / self.jobs

    def to_dict(self) -> dict:
        histogram = self._wall
        return {
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "hit_fraction": self.hit_fraction,
            "total_wall_time": self.total_wall_time,
            "total_events": self.total_events,
            "workers": self.workers,
            "wall_time_p50": histogram.percentile(50.0),
            "wall_time_p95": histogram.percentile(95.0),
            "wall_time_max": histogram.max_value,
            "engine": self.engine,
        }

    def render(self) -> str:
        """Human-readable summary for the ``repro obs report`` CLI."""
        histogram = self._wall
        lines = [
            f"jobs            : {self.jobs}",
            f"executed        : {self.executed}",
            f"cache hits      : {self.cache_hits} ({100.0 * self.hit_fraction:.1f}%)",
            f"workers         : {len(self.workers)}",
            f"events simulated: {self.total_events}",
            f"wall time total : {self.total_wall_time:.3f} s",
            f"wall time p50   : {histogram.percentile(50.0):.4f} s",
            f"wall time p95   : {histogram.percentile(95.0):.4f} s",
            f"wall time max   : {histogram.max_value:.4f} s",
        ]
        engine = self._engine
        lines.append(
            f"engine          : {engine['jobs']} job(s), "
            f"{engine['events']} events in {engine['wall_time']:.3f} s, "
            f"{engine['compactions']} compaction(s), "
            f"{engine['cancelled_pending']} cancelled pending"
        )
        return "\n".join(lines)


def batch_digest(job_digests: Sequence[str]) -> str:
    """Stable short id for a batch: hash of its job digests, in order."""
    joined = "\n".join(job_digests)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def read_telemetry_dir(directory: str | os.PathLike) -> list[JobTelemetry]:
    """Load every telemetry entry under a directory, file order.

    Unparsable lines and foreign-schema entries are skipped, not fatal:
    like the result cache, telemetry must never be able to fail a
    campaign (or its report).
    """
    root = pathlib.Path(directory)
    if not root.is_dir():
        return []
    entries: list[JobTelemetry] = []
    for path in sorted(root.glob("*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(JobTelemetry.from_dict(json.loads(line)))
            except (
                AttributeError, ConfigurationError, KeyError, TypeError, ValueError
            ):
                # Not JSON, not an object, another schema, a missing field.
                continue
    return entries
