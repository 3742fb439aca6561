"""Sim-time telemetry series: a periodic sampler with bounded storage.

The trace layer records *every* transition; at million-flow scale that
is the wrong observable.  A :class:`Timeline` instead samples live
component state (occupancy, headroom, pool split, churn counts) at a
fixed **simulation-time** cadence — the tick is an ordinary engine
event that returns the interval to re-queue itself, so sampling is
deterministic, wall-clock-free, and draws no randomness.
Two runs of the same scenario produce byte-identical series.

Samples land in bounded ring storage (:class:`TimelineSeries`), export
to JSONL under the ``repro-timeline-v1`` schema, and reduce to
windowed statistics (min/mean/max, time-above-threshold).  The layer
follows the observability contract established in PR 3: a timeline
that is constructed but never installed adds **zero** code to the hot
path — probes are pull-based, components are never modified.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from math import inf
from typing import Callable

from repro.errors import ConfigurationError
from repro.obs.events import SampleEvent

__all__ = [
    "TIMELINE_SCHEMA",
    "DEFAULT_INTERVAL",
    "Timeline",
]

#: Version tag written into every timeline JSONL header.  Registered in
#: ``repro.check.artifacts.KNOWN_SCHEMAS`` so RPR205 audits these files.
TIMELINE_SCHEMA = "repro-timeline-v1"

#: Default sampling cadence in simulation seconds.
DEFAULT_INTERVAL = 0.05

#: Default per-series ring capacity (samples retained).
DEFAULT_CAPACITY = 4096

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True, slots=True)
class SeriesStats:
    """Windowed reduction of one series: count, min/mean/max, last value."""

    count: int
    minimum: float
    mean: float
    maximum: float
    last: float

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "min": self.minimum,
            "mean": self.mean,
            "max": self.maximum,
            "last": self.last,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SeriesStats":
        return cls(
            count=int(raw["count"]),
            minimum=float(raw["min"]),
            mean=float(raw["mean"]),
            maximum=float(raw["max"]),
            last=float(raw["last"]),
        )


class TimelineSeries:
    """One named, bounded column of ``(sim_time, value)`` samples.

    The ring keeps the most recent ``capacity`` samples; ``dropped``
    counts evictions so truncation is visible rather than silent.
    Values are treated as piecewise-constant between samples (each
    sample holds until the next one) for the windowed reductions.
    """

    __slots__ = ("name", "node", "capacity", "dropped", "_times", "_values")

    def __init__(self, name: str, node: str = "", capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ConfigurationError(f"series capacity must be >= 1, got {capacity}")
        self.name = name
        self.node = node
        self.capacity = capacity
        self.dropped = 0
        self._times: list[float] = []
        self._values: list[float] = []

    @property
    def key(self) -> str:
        """Qualified series name: ``node/name``, or ``name`` single-port."""
        return f"{self.node}/{self.name}" if self.node else self.name

    def append(self, time: float, value: float) -> None:
        if len(self._times) >= self.capacity:
            del self._times[0]
            del self._values[0]
            self.dropped += 1
        self._times.append(time)
        self._values.append(value)

    def times(self) -> list[float]:
        return list(self._times)

    def values(self) -> list[float]:
        return list(self._values)

    def __len__(self) -> int:
        return len(self._times)

    def _window(self, since: float | None, until: float | None) -> range:
        lo = 0
        hi = len(self._times)
        if since is not None:
            while lo < hi and self._times[lo] < since:
                lo += 1
        if until is not None:
            while hi > lo and self._times[hi - 1] > until:
                hi -= 1
        return range(lo, hi)

    def stats(
        self, since: float | None = None, until: float | None = None
    ) -> SeriesStats | None:
        """Min/mean/max/last over the (inclusive) window; None if empty."""
        window = self._window(since, until)
        if not len(window):
            return None
        values = self._values[window.start : window.stop]
        return SeriesStats(
            count=len(values),
            minimum=min(values),
            mean=sum(values) / len(values),
            maximum=max(values),
            last=values[-1],
        )

    def time_above(
        self,
        threshold: float,
        since: float | None = None,
        until: float | None = None,
    ) -> float:
        """Simulated seconds the series spent strictly above ``threshold``.

        Piecewise-constant semantics: each sample's value holds until
        the next sample.  The final sample extends to ``until`` when
        given, otherwise it contributes nothing (its holding interval
        is unknown).
        """
        window = self._window(since, until)
        total = 0.0
        for i in window:
            if self._values[i] <= threshold:
                continue
            start = self._times[i]
            if since is not None and start < since:
                start = since
            if i + 1 < len(self._times):
                end = self._times[i + 1]
                if until is not None and end > until:
                    end = until
            elif until is not None:
                end = until
            else:
                continue
            if end > start:
                total += end - start
        return total

    def sparkline(self, width: int = 32) -> str:
        """Unicode block-character rendering of the series shape."""
        if not self._values:
            return ""
        buckets = _downsample(self._values, width)
        lo = min(buckets)
        hi = max(buckets)
        span = hi - lo
        if span <= 0.0:
            return _SPARK_BLOCKS[0] * len(buckets)
        top = len(_SPARK_BLOCKS) - 1
        return "".join(
            _SPARK_BLOCKS[min(top, int((v - lo) / span * top + 0.5))] for v in buckets
        )


def _downsample(values: list[float], width: int) -> list[float]:
    """Mean-pool ``values`` into at most ``width`` buckets."""
    if width < 1:
        raise ConfigurationError(f"sparkline width must be >= 1, got {width}")
    n = len(values)
    if n <= width:
        return list(values)
    buckets = []
    for b in range(width):
        lo = b * n // width
        hi = (b + 1) * n // width
        chunk = values[lo:hi] or [values[lo]]
        buckets.append(sum(chunk) / len(chunk))
    return buckets


@dataclass(frozen=True)
class TimelineSummary:
    """Serializable digest of a timeline: cadence plus per-series stats.

    This is what campaign records carry (one summary per job) instead
    of the raw rings; keys are :attr:`TimelineSeries.key` strings.
    """

    interval: float
    ticks: int
    series: dict

    def to_dict(self) -> dict:
        return {
            "schema": TIMELINE_SCHEMA,
            "interval": self.interval,
            "ticks": self.ticks,
            "series": {key: stats.to_dict() for key, stats in self.series.items()},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TimelineSummary":
        schema = raw.get("schema")
        if schema != TIMELINE_SCHEMA:
            raise ConfigurationError(
                f"timeline schema mismatch: got {schema!r}, "
                f"expected {TIMELINE_SCHEMA!r}"
            )
        return cls(
            interval=float(raw["interval"]),
            ticks=int(raw["ticks"]),
            series={
                key: SeriesStats.from_dict(value)
                for key, value in raw["series"].items()
            },
        )

    def render(self) -> str:
        """Human-readable table: one line per series."""
        lines = [f"timeline: {self.ticks} ticks @ {self.interval:g}s"]
        width = max((len(key) for key in self.series), default=0)
        for key in sorted(self.series):
            s = self.series[key]
            lines.append(
                f"  {key.ljust(width)}  n={s.count:<5d} "
                f"min={s.minimum:<12.6g} mean={s.mean:<12.6g} "
                f"max={s.maximum:<12.6g} last={s.last:.6g}"
            )
        return "\n".join(lines)


class Timeline:
    """A deterministic sim-time sampler over pull-based probes.

    Register probes (``name``, zero-arg callable, optional node label)
    before the run, then :meth:`install` onto the simulator: every
    ``interval`` simulated seconds the sampler reads each probe and
    appends to the matching :class:`TimelineSeries`.  The tick is an
    ordinary handle-free engine event — no wall clock, no RNG — so the
    cadence is exactly reproducible and the sampled run's packet-level
    behaviour is unchanged (probes only *read* live attributes).

    Args:
        interval: sampling cadence in simulated seconds.
        capacity: per-series ring capacity.
        flows: flow ids whose per-flow occupancy the fabric should tag
            (consumed by ``run_fabric`` when wiring probes).
    """

    __slots__ = (
        "interval",
        "capacity",
        "flows",
        "ticks",
        "_series",
        "_probes",
        "_sink",
        "_sim",
    )

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        flows: tuple = (),
    ) -> None:
        if not 0.0 < interval < inf:  # refuses NaN too: it fails every comparison
            raise ConfigurationError(f"interval must be > 0 and finite, got {interval}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.interval = float(interval)
        self.capacity = capacity
        self.flows = tuple(flows)
        self.ticks = 0
        self._series: dict[tuple[str, str], TimelineSeries] = {}
        self._probes: dict[tuple[str, str], Callable[[], float]] = {}
        self._sink = None
        self._sim = None

    def series(self, name: str, node: str = "") -> TimelineSeries:
        """Get or create the series for ``(node, name)``."""
        key = (node, name)
        series = self._series.get(key)
        if series is None:
            series = TimelineSeries(name, node, self.capacity)
            self._series[key] = series
        return series

    def all_series(self) -> list[TimelineSeries]:
        """Every registered series, in registration order."""
        return list(self._series.values())

    def probe(self, name: str, fn: Callable[[], float], node: str = "") -> None:
        """Register a pull-based probe sampled at every tick."""
        key = (node, name)
        if key in self._probes:
            raise ConfigurationError(
                f"probe {name!r} already registered for node {node!r}"
            )
        self._probes[key] = fn
        self.series(name, node)

    def attach_trace(self, sink) -> None:
        """Mirror every sample into ``sink`` as a ``SampleEvent``."""
        self._sink = sink

    def install(self, sim, until: float) -> None:
        """Schedule the periodic tick on ``sim`` up to sim-time ``until``."""
        if self._sim is not None:
            raise ConfigurationError("timeline is already installed")
        if until <= 0.0:
            raise ConfigurationError(f"until must be > 0, got {until}")
        self._sim = sim
        sim.schedule_fast(self.interval, self._tick, until)

    def _tick(self, until: float) -> float | None:
        """Sample, then return the delay to the next tick; overrides return ``super()``'s."""
        now = self._sim.now
        sink = self._sink
        for (node, name), fn in self._probes.items():
            value = float(fn())
            self._series[(node, name)].append(now, value)
            if sink is not None:
                sink.emit(SampleEvent(now, name, value, node))
        self.ticks += 1
        return self.interval if now + self.interval <= until else None

    def sample_now(self, time: float) -> None:
        """Take one out-of-band sample at ``time`` (e.g. a final flush)."""
        sink = self._sink
        for (node, name), fn in self._probes.items():
            value = float(fn())
            self._series[(node, name)].append(time, value)
            if sink is not None:
                sink.emit(SampleEvent(time, name, value, node))
        self.ticks += 1

    def summary(
        self, since: float | None = None, until: float | None = None
    ) -> TimelineSummary:
        """Reduce every series to :class:`SeriesStats` over the window."""
        reduced = {}
        for series in self._series.values():
            stats = series.stats(since, until)
            if stats is not None:
                reduced[series.key] = stats
        return TimelineSummary(interval=self.interval, ticks=self.ticks, series=reduced)

    def write_jsonl(self, path: str | os.PathLike) -> pathlib.Path:
        """Write the retained samples as schema-tagged JSONL, time-ordered."""
        out = pathlib.Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        keys = sorted(series.key for series in self._series.values())
        # Samples grouped by exact tick time, each tick in probe order.
        rows: dict[float, dict[str, float]] = {}
        for series in self._series.values():
            for time, value in zip(series._times, series._values):
                rows.setdefault(time, {})[series.key] = value
        with out.open("w", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "kind": "header",
                        "schema": TIMELINE_SCHEMA,
                        "interval": self.interval,
                        "ticks": self.ticks,
                        "series": keys,
                    }
                )
                + "\n"
            )
            for time in sorted(rows):
                for series in self._series.values():
                    value = rows[time].get(series.key)
                    if value is None:
                        continue
                    fh.write(
                        json.dumps(
                            {
                                "kind": "sample",
                                "time": time,
                                "series": series.name,
                                "node": series.node,
                                "value": value,
                            }
                        )
                        + "\n"
                    )
        return out

    def render(self, width: int = 40) -> str:
        """Sparkline view: one line per series with its reduction."""
        lines = [f"timeline: {self.ticks} ticks @ {self.interval:g}s"]
        series_list = sorted(self._series.values(), key=lambda s: s.key)
        label_width = max((len(s.key) for s in series_list), default=0)
        for series in series_list:
            stats = series.stats()
            if stats is None:
                continue
            spark = series.sparkline(width)
            suffix = f" (+{series.dropped} evicted)" if series.dropped else ""
            lines.append(
                f"  {series.key.ljust(label_width)}  {spark}  "
                f"min={stats.minimum:.6g} mean={stats.mean:.6g} "
                f"max={stats.maximum:.6g} last={stats.last:.6g}{suffix}"
            )
        return "\n".join(lines)
