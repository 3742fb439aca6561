"""Experiment sizing: fast (default) vs full reproduction mode.

The paper's sweeps (5 replications, long runs, many buffer points) take a
while in pure Python, so the figure functions default to a scaled-down
*fast* mode that preserves every qualitative shape.  Set the environment
variable ``REPRO_FULL=1`` (or pass ``fast=False``) to run the
paper-faithful configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.units import mbytes

__all__ = [
    "SweepConfig",
    "sweep_config",
    "full_mode_enabled",
    "campaign_workers",
    "campaign_cache_setting",
    "campaign_telemetry_setting",
    "campaign_monitor_enabled",
]


def full_mode_enabled() -> bool:
    """True when the REPRO_FULL environment variable requests full runs."""
    return os.environ.get("REPRO_FULL", "").strip() not in ("", "0", "false", "no")


def campaign_workers() -> int:
    """Worker-process count for campaign execution (``REPRO_WORKERS``).

    Unset, empty, or unparsable values mean serial execution (1).
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    try:
        workers = int(raw)
    except ValueError:
        return 1
    return workers if workers >= 1 else 1


def campaign_cache_setting() -> str | None:
    """The raw ``REPRO_CACHE`` setting, or ``None`` when caching is off.

    ``1``/``true``/``yes`` request the default cache location; any other
    non-empty value is a cache directory path.  Interpretation lives in
    :func:`repro.experiments.campaign.default_runner`.
    """
    raw = os.environ.get("REPRO_CACHE", "").strip()
    if raw in ("", "0", "false", "no"):
        return None
    return raw


def campaign_telemetry_setting() -> str | None:
    """The raw ``REPRO_TELEMETRY`` setting, or ``None`` when disabled.

    ``1``/``true``/``yes`` request the default telemetry location
    (``results/telemetry``); any other non-empty value is a directory
    path.  ``0``/``false``/``no``/unset disable run telemetry.
    """
    raw = os.environ.get("REPRO_TELEMETRY", "").strip()
    if raw in ("", "0", "false", "no"):
        return None
    return raw


def campaign_monitor_enabled() -> bool:
    """True when ``REPRO_MONITOR`` asks campaign jobs to self-verify.

    With monitoring on, every executed job runs with a sim-time
    :class:`~repro.obs.timeline.Timeline` and a
    :class:`~repro.obs.monitor.ConformanceMonitor` attached; the
    summary and the violation report land on the record's
    non-serialized observability fields (cache entries stay
    byte-identical, like telemetry).
    """
    return os.environ.get("REPRO_MONITOR", "").strip() not in ("", "0", "false", "no")


@dataclass(frozen=True)
class SweepConfig:
    """Sizing of a buffer-sweep experiment."""

    buffers: tuple[float, ...]
    seeds: tuple[int, ...]
    sim_time: float

    @property
    def n_runs_per_scheme(self) -> int:
        return len(self.buffers) * len(self.seeds)


#: Buffer grid of Figures 1-6 and 8-13 (MBytes), paper range 0.5-5.
_FULL_BUFFERS_MB = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
_FAST_BUFFERS_MB = (0.5, 1.0, 2.0, 3.5, 5.0)


def sweep_config(fast: bool | None = None) -> SweepConfig:
    """Resolve the sweep sizing for the requested mode.

    Args:
        fast: ``True`` forces fast mode, ``False`` forces full mode,
            ``None`` consults the ``REPRO_FULL`` environment variable.
    """
    if fast is None:
        fast = not full_mode_enabled()
    if fast:
        return SweepConfig(
            buffers=tuple(mbytes(b) for b in _FAST_BUFFERS_MB),
            seeds=(1, 2, 3),
            sim_time=8.0,
        )
    return SweepConfig(
        buffers=tuple(mbytes(b) for b in _FULL_BUFFERS_MB),
        seeds=(1, 2, 3, 4, 5),
        sim_time=20.0,
    )
