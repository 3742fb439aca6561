"""Time-series instrumentation: occupancy and counter trajectories.

The analysis sections of the paper reason about *trajectories* — e.g.
Example 1's flow-1 occupancy climbing towards its threshold.  The
:class:`OccupancyProbe` samples any zero-argument callables on a fixed
period so simulations can expose those trajectories for validation and
plotting, without the hot path paying for per-packet logging.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator

__all__ = ["OccupancyProbe"]


class OccupancyProbe:
    """Periodically sample named quantities during a simulation.

    Args:
        sim: the simulation engine.
        period: sampling period in seconds.
        probes: mapping name -> zero-argument callable returning a float
            (e.g. ``lambda: manager.occupancy(1)``).
        until: stop sampling at this time (None = run forever).  The
            boundary is sampled *inclusively*: the final sample lands
            exactly at ``until``, even when the sampling period does not
            divide it (the last step is clamped), so a measurement
            window always includes its end state.

    After the run, ``times`` holds the sample instants and
    ``series[name]`` the aligned values.
    """

    __slots__ = ("sim", "period", "probes", "until", "times", "series")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        probes: Mapping[str, Callable[[], float]],
        until: float | None = None,
    ) -> None:
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        if not probes:
            raise ConfigurationError("at least one probe is required")
        self.sim = sim
        self.period = float(period)
        self.probes = dict(probes)
        self.until = until
        self.times: list[float] = []
        self.series: dict[str, list[float]] = {name: [] for name in probes}
        sim.schedule(0.0, self._sample)

    def _sample(self) -> None:
        now = self.sim.now
        self.times.append(now)
        for name, probe in self.probes.items():
            self.series[name].append(float(probe()))
        if self.until is None:
            self.sim.schedule(self.period, self._sample)
            return
        if now >= self.until:
            return  # the boundary sample at `until` was just taken
        # Clamp the last step so the boundary is sampled exactly at
        # `until` instead of being silently dropped when accumulated
        # float steps overshoot it (e.g. 3 * 0.1 > 0.3).
        self.sim.schedule_at(min(now + self.period, self.until), self._sample)

    def to_rows(self) -> list[tuple[float, str, float]]:
        """The samples as flat ``(time, name, value)`` rows.

        Rows are ordered by time, then by series name (insertion order of
        ``probes``), which is the layout the JSONL trace tooling and
        spreadsheet-style consumers expect.
        """
        rows: list[tuple[float, str, float]] = []
        for index, time in enumerate(self.times):
            for name in self.series:
                rows.append((time, name, self.series[name][index]))
        return rows

    def maximum(self, name: str) -> float:
        """Largest sampled value of a series (0.0 if never sampled)."""
        values = self.series[name]
        return max(values) if values else 0.0

    def final(self, name: str) -> float:
        """Last sampled value of a series."""
        values = self.series[name]
        if not values:
            raise ConfigurationError(f"series {name!r} has no samples")
        return values[-1]

    def time_average(self, name: str) -> float:
        """Arithmetic mean of the samples (uniform period)."""
        values = self.series[name]
        if not values:
            raise ConfigurationError(f"series {name!r} has no samples")
        return sum(values) / len(values)
