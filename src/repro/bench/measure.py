"""Timed execution of benchmark cases.

Each case runs ``trials`` times; every trial records wall time, and the
first trial also records the deterministic work counters (events
processed, packets offered for macro cases).  Later trials must
reproduce the same counters — a mismatch means the workload is
nondeterministic and the throughput numbers are meaningless, so it is an
error, not a warning.

The *relative spread* of the wall times, ``(max - min) / median``, is
stored alongside the measurement.  :mod:`repro.bench.compare` widens its
regression threshold by this spread (times a CLI-tunable multiplier), so
a noisy machine loosens its own gate instead of flagging phantom
regressions.

Peak RSS comes from ``resource.getrusage`` — the high-water mark of the
whole process, not per-case, but tracked because a leak would show up
here first.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Sequence

from repro.bench.suite import MACRO, BenchCase
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.campaign import NetworkJob, NetworkRecord, ScenarioRecord
from repro.experiments.fabric import run_fabric
from repro.experiments.runner import run_scenario

__all__ = ["CaseResult", "measure_case", "run_suite"]


def _peak_rss_bytes() -> int:
    """Process high-water resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux but bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


@dataclass(frozen=True)
class CaseResult:
    """The measurement of one case: counters plus per-trial wall times."""

    name: str
    kind: str
    digest: str
    events: int
    packets: int | None
    wall_times: tuple[float, ...]
    peak_rss_bytes: int

    def __post_init__(self) -> None:
        if not self.wall_times:
            raise ConfigurationError(f"case {self.name!r} has no trials")

    @property
    def trials(self) -> int:
        return len(self.wall_times)

    @property
    def wall_time(self) -> float:
        """Median wall seconds across trials (robust to one slow trial)."""
        return median(self.wall_times)

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_time

    @property
    def packets_per_sec(self) -> float | None:
        if self.packets is None:
            return None
        return self.packets / self.wall_time

    @property
    def rel_spread(self) -> float:
        """(max - min) / median of the wall times: the noise estimate."""
        return (max(self.wall_times) - min(self.wall_times)) / self.wall_time

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "digest": self.digest,
            "events": self.events,
            "packets": self.packets,
            "wall_times": list(self.wall_times),
            "wall_time": self.wall_time,
            "events_per_sec": self.events_per_sec,
            "packets_per_sec": self.packets_per_sec,
            "rel_spread": self.rel_spread,
            "peak_rss_bytes": self.peak_rss_bytes,
        }

    @staticmethod
    def from_dict(raw: dict) -> "CaseResult":
        try:
            return CaseResult(
                name=str(raw["name"]),
                kind=str(raw["kind"]),
                digest=str(raw["digest"]),
                events=int(raw["events"]),
                packets=None if raw["packets"] is None else int(raw["packets"]),
                wall_times=tuple(float(t) for t in raw["wall_times"]),
                peak_rss_bytes=int(raw["peak_rss_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed case result: {exc}") from exc


def _run_macro(case: BenchCase) -> tuple[int, int]:
    """Execute a macro case once; returns (events, offered packets)."""
    job = case.job
    if job is None:  # BenchCase.__post_init__ guarantees this for macro
        raise ConfigurationError(f"macro case {case.name!r} has no job")
    if isinstance(job, NetworkJob):
        record = NetworkRecord.from_result(run_fabric(job.scenario), case.digest())
        packets = sum(
            fs.offered_packets
            for link in record.links.values()
            for fs in link.flow_stats.values()
        )
        return record.events_processed, packets
    result = run_scenario(
        list(job.flows), job.scheme, job.buffer_size, **job.scenario_kwargs()
    )
    record = ScenarioRecord.from_result(result, case.digest())
    packets = sum(fs.offered_packets for fs in record.flow_stats.values())
    return record.events_processed, packets


def measure_case(case: BenchCase, trials: int = 3) -> CaseResult:
    """Run one case ``trials`` times and return its measurement."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    runner = case.runner
    if case.kind != MACRO and (runner is None or case.params is None):
        raise ConfigurationError(f"micro case {case.name!r} has no runner")
    wall_times: list[float] = []
    events = 0
    packets: int | None = None
    for trial in range(trials):
        # Per-trial setup (when the case declares one) runs before the
        # clock starts: identical-for-every-variant preparation must not
        # dilute the measured work.
        state = None if case.setup is None else case.setup(dict(case.params))
        # Benchmark timing is the one place wall-clock reads belong.
        start = time.perf_counter()  # repro: noqa RPR101 — bench timing
        if case.kind == MACRO:
            trial_events, trial_packets = _run_macro(case)
        elif case.setup is not None:
            trial_events = runner(dict(case.params), state)
            trial_packets = None
        else:
            trial_events = runner(dict(case.params))
            trial_packets = None
        wall_times.append(time.perf_counter() - start)  # repro: noqa RPR101 — bench timing
        if trial == 0:
            events, packets = trial_events, trial_packets
        elif (events, packets) != (trial_events, trial_packets):
            raise SimulationError(
                f"bench case {case.name!r} is nondeterministic: trial counters "
                f"({trial_events}, {trial_packets}) != ({events}, {packets})"
            )
    return CaseResult(
        name=case.name,
        kind=case.kind,
        digest=case.digest(),
        events=events,
        packets=packets,
        wall_times=tuple(wall_times),
        peak_rss_bytes=_peak_rss_bytes(),
    )


def run_suite(
    cases: Sequence[BenchCase],
    trials: int = 3,
    progress=None,
) -> list[CaseResult]:
    """Measure every case in order.

    ``progress`` is an optional callable invoked with each finished
    :class:`CaseResult` (the CLI uses it to stream the table).
    """
    results = []
    for case in cases:
        result = measure_case(case, trials=trials)
        if progress is not None:
            progress(result)
        results.append(result)
    return results
