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

from repro.errors import ConfigurationError
from repro.units import mbytes

__all__ = ["SweepConfig", "sweep_config", "positive"]


def positive(text: str, convert: type = int):
    """``convert(text)`` when it is above zero, else a :class:`ConfigurationError`.

    The one check behind ``--workers``, ``--hops``, ``--interval``,
    ``--heartbeat-timeout`` and ``REPRO_WORKERS``, so a flag and its
    variable refuse a value in the same words.
    """
    try:
        value = convert(text)
    except ValueError:
        value = 0
    if not value > 0:
        raise ConfigurationError(
            f"expected a positive {convert.__name__}, got {text!r}"
        )
    return value


@dataclass(frozen=True)
class SweepConfig:
    """Sizing of a buffer-sweep experiment."""

    buffers: tuple[float, ...]
    seeds: tuple[int, ...]
    sim_time: float


#: Buffer grid of Figures 1-6 and 8-13 (MBytes), paper range 0.5-5.
_FULL_BUFFERS_MB = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0)
_FAST_BUFFERS_MB = (0.5, 1.0, 2.0, 3.5, 5.0)


def sweep_config(fast: bool | None = None) -> SweepConfig:
    """Resolve the sweep sizing for the requested mode.

    Args:
        fast: ``True`` forces fast mode, ``False`` forces full mode
            (``--full``), ``None`` consults ``REPRO_FULL``: full mode
            unless it is unset, empty, ``0``, ``false`` or ``no``.
    """
    if fast is None:
        fast = os.environ.get("REPRO_FULL", "").strip() in ("", "0", "false", "no")
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
