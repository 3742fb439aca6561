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
    "DELAY_LOG_BASE",
    "DELAY_OVERFLOW",
    "FlowStats",
    "LinkMeasures",
    "StatsCollector",
    "accounted",
]


@dataclass(slots=True)
class FlowStats:
    """Counters for one flow over the measurement window.

    ``bins`` holds the flow's delay-histogram counts when its collector
    keeps histograms (``None`` until the first departure); it is not a
    measurement of its own, so equality, ``repr`` and the serialized
    form leave it out.
    """

    offered_packets: int = 0
    offered_bytes: float = 0.0
    dropped_packets: int = 0
    dropped_bytes: float = 0.0
    departed_packets: int = 0
    departed_bytes: float = 0.0
    delay_sum: float = 0.0
    delay_max: float = 0.0
    bins: list[int] | None = field(default=None, compare=False, repr=False)

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


def accounted(
    flows: Mapping[int, FlowStats], flow_ids: Iterable[int]
) -> dict[int, FlowStats]:
    """``flows`` in flow-id order, plus a zero entry for each of ``flow_ids``.

    A static flow that never offered a packet in the window still gets
    its (zero) entry, so a result accounts for every flow it was
    configured with.
    """
    return {
        i: flows[i] if i in flows else FlowStats()
        for i in sorted(flows.keys() | flow_ids)
    }


class LinkMeasures:
    """The one-link measurement API of a run's results, live or serialized.

    For result types that carry ``links`` (label -> a link with
    ``flow_stats``, ``thresholds``, ``queue_rates``, ``queue_buffers``,
    ``rate`` and ``buffer_size``), ``sim_time`` and ``warmup``: metric
    callables written against a live result work on its record
    unchanged.  On a multi-link result the one-link figures refuse.
    """

    __slots__ = ()

    @property
    def sole_link(self):
        """The only link of a one-link result.

        Raises :class:`~repro.errors.ConfigurationError` on a multi-link
        result: utilization, loss and the other per-link figures have no
        single meaning there — read ``record.links[label]``.
        """
        if len(self.links) != 1:
            raise ConfigurationError(
                f"this result has {len(self.links)} links "
                f"({', '.join(self.links)}); one-link measurements are "
                "only defined on a one-link result — read record.links[label]"
            )
        (link,) = self.links.values()
        return link

    @property
    def flow_stats(self) -> dict[int, FlowStats]:
        return self.sole_link.flow_stats

    @property
    def thresholds(self) -> dict[int, float]:
        return self.sole_link.thresholds

    @property
    def queue_rates(self) -> tuple[float, ...] | None:
        return self.sole_link.queue_rates

    @property
    def queue_buffers(self) -> tuple[float, ...] | None:
        return self.sole_link.queue_buffers

    @property
    def link_rate(self) -> float:
        return self.sole_link.rate

    @property
    def buffer_size(self) -> float:
        return self.sole_link.buffer_size

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
# The histogram's own binning, read once: a departure indexes with the
# expression LogHistogram.record uses, ``1 + int(log(delay / DELAY_LO) /
# DELAY_LOG_BASE)``, below DELAY_LO bin 0 and from DELAY_HI bin
# DELAY_OVERFLOW.  StatsCollector.on_depart and OutputPort both bin so.
_SHAPE = LogHistogram(DELAY_LO, DELAY_HI)
DELAY_LOG_BASE = _SHAPE._log_base
DELAY_OVERFLOW = _SHAPE.n_bins + 1


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
    ``delay_max``, so ``on_depart`` only adds one to a bin, in the
    flow's ``FlowStats.bins``.

    The ``on_*`` methods are the reference API (the network's delivery
    sink and direct callers drive them); :class:`~repro.sim.port.OutputPort`
    updates its hop's ``flows`` inline with the same operations.
    """

    warmup: float = 0.0
    delay_histograms: bool = False
    flows: dict[int, FlowStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.warmup >= 0:  # `not >=`, so that a NaN warmup raises too
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
        stats = self.flows.get(flow_id)
        if stats is not None and stats.bins is not None:
            histogram._counts[:] = stats.bins
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
            bins = stats.bins
            if bins is None:
                bins = stats.bins = [0] * (DELAY_OVERFLOW + 1)
            if delay < DELAY_LO:
                bins[0] += 1
            elif delay >= DELAY_HI:
                bins[DELAY_OVERFLOW] += 1
            else:
                bins[1 + int(log(delay / DELAY_LO) / DELAY_LOG_BASE)] += 1

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
