"""Plain serializable measurement records.

The live :class:`~repro.metrics.collector.StatsCollector` holds open
histograms and is deliberately mutable; campaign execution needs the
opposite — frozen, picklable, JSON-friendly records that survive a trip
through a worker process and an on-disk cache byte-identically.  This
module provides the conversion layer: delay percentiles are extracted
*eagerly* from a histogram into a :class:`DelaySummary`, so the record
carries numbers instead of a live object graph, and a run measures each
link straight into a :class:`LinkRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.metrics.collector import FlowStats
from repro.metrics.histogram import LogHistogram

__all__ = ["DelaySummary", "LinkRecord"]

#: Percentile grid extracted from delay histograms.  Eager extraction
#: trades arbitrary-q queries for serializability; this grid covers the
#: paper's delay discussion (medians and tails).
DELAY_PERCENTILES: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)


@dataclass(frozen=True)
class DelaySummary:
    """Eagerly-extracted summary of one flow's delay distribution.

    All delays are in seconds over the measurement window.
    ``percentiles`` maps the fixed :data:`DELAY_PERCENTILES` grid to the
    histogram's estimates.
    """

    count: int
    mean: float
    max: float
    percentiles: tuple[tuple[float, float], ...]

    @staticmethod
    def from_histogram(histogram: LogHistogram) -> "DelaySummary":
        """Collapse a live histogram into a frozen summary."""
        return DelaySummary(
            count=histogram.count,
            mean=histogram.mean,
            max=histogram.max_value,
            percentiles=tuple(
                (q, histogram.percentile(q)) for q in DELAY_PERCENTILES
            ),
        )

    def percentile(self, q: float) -> float:
        """Look up a percentile from the extracted grid.

        Unlike the live histogram, only the :data:`DELAY_PERCENTILES`
        grid is available; any other ``q`` raises
        :class:`~repro.errors.ConfigurationError`.
        """
        for grid_q, value in self.percentiles:
            if abs(grid_q - q) < 1e-9:
                return value
        available = ", ".join(f"{grid_q:g}" for grid_q, _ in self.percentiles)
        raise ConfigurationError(
            f"percentile {q!r} was not extracted; available: {available}"
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation (round-trips via from_dict)."""
        return {
            "count": int(self.count),
            "mean": float(self.mean),
            "max": float(self.max),
            "percentiles": [
                [float(q), float(value)] for q, value in self.percentiles
            ],
        }

    @staticmethod
    def from_dict(raw: dict) -> "DelaySummary":
        return DelaySummary(
            count=int(raw["count"]),
            mean=float(raw["mean"]),
            max=float(raw["max"]),
            percentiles=tuple(
                (float(q), float(value)) for q, value in raw["percentiles"]
            ),
        )


def flow_stats_to_dict(stats: FlowStats) -> dict:
    """JSON-friendly representation of one flow's counters.

    Byte and delay counters are coerced to float so the serialized form
    (and anything digested from it) is independent of whether a counter
    happens to hold an int-valued total.
    """
    return {
        "offered_packets": int(stats.offered_packets),
        "offered_bytes": float(stats.offered_bytes),
        "dropped_packets": int(stats.dropped_packets),
        "dropped_bytes": float(stats.dropped_bytes),
        "departed_packets": int(stats.departed_packets),
        "departed_bytes": float(stats.departed_bytes),
        "delay_sum": float(stats.delay_sum),
        "delay_max": float(stats.delay_max),
    }


def flow_stats_from_dict(raw: dict) -> FlowStats:
    """Rebuild :class:`FlowStats` from :func:`flow_stats_to_dict` output."""
    return FlowStats(
        offered_packets=int(raw["offered_packets"]),
        offered_bytes=float(raw["offered_bytes"]),
        dropped_packets=int(raw["dropped_packets"]),
        dropped_bytes=float(raw["dropped_bytes"]),
        departed_packets=int(raw["departed_packets"]),
        departed_bytes=float(raw["departed_bytes"]),
        delay_sum=float(raw["delay_sum"]),
        delay_max=float(raw["delay_max"]),
    )


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
    """Serializable per-link measurements over ``[warmup, sim_time]``.

    ``flow_stats`` and ``thresholds`` are in flow-id order; a static
    flow routed over the link has an entry in ``flow_stats``, a zero one
    if it sent nothing in the window.
    """

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
