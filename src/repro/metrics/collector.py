"""Per-flow measurement of offered load, drops, departures and delay.

The collector mirrors the paper's methodology: statistics are accumulated
only after a warmup period, and throughput / loss are computed over the
measurement window ``[warmup, end]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log
from typing import Iterable, Mapping

from repro.errors import ConfigurationError
from repro.metrics.histogram import LogHistogram

__all__ = [
    "DELAY_HI",
    "DELAY_LO",
    "FlowStats",
    "LinkMeasures",
    "StatsCollector",
    "byte_loss_fraction",
    "total_departed_bytes",
]


@dataclass(slots=True)
class FlowStats:
    """Counters for one flow over the measurement window."""

    offered_packets: int = 0
    offered_bytes: float = 0.0
    dropped_packets: int = 0
    dropped_bytes: float = 0.0
    departed_packets: int = 0
    departed_bytes: float = 0.0
    delay_sum: float = 0.0
    delay_max: float = 0.0

    @property
    def accepted_packets(self) -> int:
        return self.offered_packets - self.dropped_packets

    @property
    def loss_fraction(self) -> float:
        """Fraction of offered bytes that were dropped (0 if idle)."""
        if self.offered_bytes <= 0:
            return 0.0
        return self.dropped_bytes / self.offered_bytes

    @property
    def mean_delay(self) -> float:
        """Mean queueing + transmission delay of departed packets."""
        if self.departed_packets == 0:
            return 0.0
        return self.delay_sum / self.departed_packets


def total_departed_bytes(
    flows: Mapping[int, FlowStats], flow_ids: Iterable[int] | None = None
) -> float:
    """Departed bytes summed over the given flows (default: all)."""
    ids = flows.keys() if flow_ids is None else flow_ids
    return sum(flows[i].departed_bytes for i in ids if i in flows)


def byte_loss_fraction(
    flows: Mapping[int, FlowStats], flow_ids: Iterable[int] | None = None
) -> float:
    """Dropped / offered bytes over the given flows (default: all)."""
    ids = list(flows.keys() if flow_ids is None else flow_ids)
    offered = sum(flows[i].offered_bytes for i in ids if i in flows)
    if offered <= 0:
        return 0.0
    dropped = sum(flows[i].dropped_bytes for i in ids if i in flows)
    return dropped / offered


class LinkMeasures:
    """The measurement API of one link's results, live or serialized.

    For result types that carry ``flow_stats``, ``sim_time``, ``warmup``
    and the ``link_rate``: metric callables written against a live
    result work on its record unchanged.
    """

    __slots__ = ()

    @property
    def duration(self) -> float:
        """Length of the measurement window ``[warmup, sim_time]``."""
        return self.sim_time - self.warmup

    def throughput(self, flow_ids: Iterable[int] | None = None) -> float:
        """Delivered bytes/second over the given flows (default: all)."""
        return total_departed_bytes(self.flow_stats, flow_ids) / self.duration

    def utilization(self, flow_ids: Iterable[int] | None = None) -> float:
        """Throughput as a fraction of the link rate."""
        return self.throughput(flow_ids) / self.link_rate

    def loss_fraction(self, flow_ids: Iterable[int] | None = None) -> float:
        """Dropped / offered bytes over the given flows (default: all)."""
        return byte_loss_fraction(self.flow_stats, flow_ids)


#: Binning of the per-flow delay histograms, in seconds.
DELAY_LO, DELAY_HI = 1e-6, 100.0
# The histogram's own binning, read once: on_depart indexes with the
# expression LogHistogram.record uses.
_SHAPE = LogHistogram(DELAY_LO, DELAY_HI)
_LOG_BASE = _SHAPE._log_base
_OVERFLOW = _SHAPE.n_bins + 1


@dataclass
class StatsCollector:
    """Accumulates :class:`FlowStats` for every flow seen at a port.

    Args:
        warmup: events strictly before this time are ignored.
        delay_histograms: when True, per-flow departure delays are
            binned as a :class:`~repro.metrics.histogram.LogHistogram`
            over ``[DELAY_LO, DELAY_HI)`` seconds (see
            :meth:`delay_histogram`).

    A flow's histogram is not a second record: its count, total and
    maximum are the flow's ``departed_packets``, ``delay_sum`` and
    ``delay_max``, so ``on_depart`` only adds one to a bin, in a list
    kept beside ``flows``.
    """

    warmup: float = 0.0
    delay_histograms: bool = False
    flows: dict[int, FlowStats] = field(default_factory=dict)
    _bins: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be non-negative, got {self.warmup}")

    def delay_histogram(self, flow_id: int) -> LogHistogram:
        """A snapshot of the flow's delay histogram (needs ``delay_histograms=True``).

        Built from the flow's bins and :class:`FlowStats` at the time of
        the call; later departures do not reach it.  A flow that never
        departed gives an empty histogram.
        """
        if not self.delay_histograms:
            raise ConfigurationError("collector built without delay_histograms=True")
        histogram = LogHistogram(DELAY_LO, DELAY_HI)
        bins = self._bins.get(flow_id)
        if bins is not None:
            stats = self.flows[flow_id]
            histogram._counts[:] = bins
            histogram.count = stats.departed_packets
            histogram.total = stats.delay_sum
            histogram.max_value = stats.delay_max
        return histogram

    def on_offered(self, flow_id: int, size: float, now: float) -> None:
        """A packet reached the port (post-shaper offered load)."""
        if now < self.warmup:
            return
        try:
            stats = self.flows[flow_id]
        except KeyError:
            stats = self.flows[flow_id] = FlowStats()
        stats.offered_packets += 1
        stats.offered_bytes += size

    def on_drop(self, flow_id: int, size: float, now: float) -> None:
        """The buffer manager rejected the packet."""
        if now < self.warmup:
            return
        try:
            stats = self.flows[flow_id]
        except KeyError:
            stats = self.flows[flow_id] = FlowStats()
        stats.dropped_packets += 1
        stats.dropped_bytes += size

    def on_depart(self, flow_id: int, size: float, delay: float, now: float) -> None:
        """The packet finished transmission ``delay`` seconds after arrival."""
        if now < self.warmup:
            return
        try:
            stats = self.flows[flow_id]
        except KeyError:
            stats = self.flows[flow_id] = FlowStats()
        stats.departed_packets += 1
        stats.departed_bytes += size
        stats.delay_sum += delay
        if delay > stats.delay_max:
            stats.delay_max = delay
        if self.delay_histograms:
            try:
                bins = self._bins[flow_id]
            except KeyError:
                bins = self._bins[flow_id] = [0] * (_OVERFLOW + 1)
            if delay < DELAY_LO:
                bins[0] += 1
            elif delay >= DELAY_HI:
                bins[_OVERFLOW] += 1
            else:
                bins[1 + int(log(delay / DELAY_LO) / _LOG_BASE)] += 1

    # -- aggregation ----------------------------------------------------

    def flow_ids(self) -> list[int]:
        return sorted(self.flows)

    def total_departed_bytes(self, flow_ids=None) -> float:
        """Departed bytes summed over the given flows (default: all)."""
        return total_departed_bytes(self.flows, flow_ids)

    def throughput(self, duration: float, flow_ids=None) -> float:
        """Bytes/second delivered over the measurement window."""
        if duration <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        return self.total_departed_bytes(flow_ids) / duration

    def loss_fraction(self, flow_ids=None) -> float:
        """Dropped / offered bytes over the given flows (default: all)."""
        return byte_loss_fraction(self.flows, flow_ids)
