"""Reading, filtering and replaying JSONL traces.

A trace is *replayable*: the structured events carry enough information
to reconstruct the per-flow accounting a live
:class:`~repro.metrics.collector.StatsCollector` would have produced
(see :func:`replay_flow_counts` and ``tests/test_obs_replay.py``), which
is what makes a trace trustworthy as a debugging artifact — if the
replay matches, the trace is the run.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.obs.events import (
    TRACE_SCHEMA,
    DepartEvent,
    DropEvent,
    EnqueueEvent,
    EVENT_TYPES,
    event_from_dict,
)

__all__ = ["read_events", "filter_events", "replay_flow_counts"]


def read_events(path: str | os.PathLike) -> Iterator:
    """Yield the typed events of a JSONL trace file, in file order.

    The header line is validated (schema tag) and consumed; blank lines
    are tolerated.  Raises :class:`~repro.errors.ConfigurationError` on a
    missing/mismatched header or an unparsable line.
    """
    trace_path = pathlib.Path(path)
    with trace_path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except ValueError:
            raise ConfigurationError(
                f"{trace_path}: first line is not a JSON header"
            ) from None
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise ConfigurationError(f"{trace_path}: missing trace header line")
        schema = header.get("schema")
        if schema != TRACE_SCHEMA:
            raise ConfigurationError(
                f"{trace_path}: trace schema mismatch: got {schema!r}, "
                f"expected {TRACE_SCHEMA!r}"
            )
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except ValueError:
                raise ConfigurationError(
                    f"{trace_path}:{line_no}: unparsable trace line"
                ) from None
            yield event_from_dict(raw)


def filter_events(
    events: Iterable,
    flows: Sequence[int] | None = None,
    kinds: Sequence[str] | None = None,
    nodes: Sequence[str] | None = None,
    since: float | None = None,
    until: float | None = None,
) -> Iterator:
    """Select events by flow id, kind tag, node label, and time window.

    Events without a ``flow_id`` field (headroom, pool, sample) are
    excluded whenever a flow filter is given.  Single-port runs
    label their events with the empty string, so ``nodes=[""]`` selects
    them explicitly.  ``since``/``until`` bound ``event.time``
    inclusively on both ends; a NaN or infinite bound is refused.  Bad
    arguments raise at the call, not at the first ``next()``.
    """
    for bound in (since, until):
        if bound is not None and not -math.inf < bound < math.inf:
            raise ConfigurationError(f"time bounds must be finite, got {bound}")
    if kinds is not None:
        unknown = set(kinds) - set(EVENT_TYPES)
        if unknown:
            raise ConfigurationError(
                f"unknown event kinds {sorted(unknown)}; valid: {sorted(EVENT_TYPES)}"
            )
    return _filtered(
        events,
        None if flows is None else frozenset(flows),
        None if kinds is None else frozenset(kinds),
        None if nodes is None else frozenset(nodes),
        since,
        until,
    )


def _filtered(events, flow_set, kind_set, node_set, since, until) -> Iterator:
    """The selection :func:`filter_events` returns, over checked arguments."""
    for event in events:
        if kind_set is not None and type(event).kind not in kind_set:
            continue
        if flow_set is not None and getattr(event, "flow_id", None) not in flow_set:
            continue
        if node_set is not None and getattr(event, "node", None) not in node_set:
            continue
        time = event.time
        if since is not None and time < since:
            continue
        if until is not None and time > until:
            continue
        yield event


@dataclass
class FlowReplay:
    """Per-flow counters reconstructed from a trace stream."""

    accepted_packets: int = 0
    accepted_bytes: float = 0.0
    dropped_packets: int = 0
    dropped_bytes: float = 0.0
    departed_packets: int = 0
    departed_bytes: float = 0.0
    drop_reasons: dict = field(default_factory=dict)

    @property
    def offered_packets(self) -> int:
        """Arrivals seen at the port: admissions plus drops."""
        return self.accepted_packets + self.dropped_packets


# repro: noqa RPR110 — oracle: tests/test_obs_replay.py rebuilds a run's counts from its trace
def replay_flow_counts(events: Iterable, warmup: float = 0.0) -> dict[int, FlowReplay]:
    """Reconstruct per-flow accounting from enqueue/drop/depart events.

    Events strictly before ``warmup`` are ignored, mirroring
    :class:`~repro.metrics.collector.StatsCollector`'s measurement
    window, so the replay of a traced run matches the collector exactly.
    """
    replays: dict[int, FlowReplay] = {}
    for event in events:
        if event.time < warmup:
            continue
        if isinstance(event, EnqueueEvent):
            replay = replays.setdefault(event.flow_id, FlowReplay())
            replay.accepted_packets += 1
            replay.accepted_bytes += event.size
        elif isinstance(event, DropEvent):
            replay = replays.setdefault(event.flow_id, FlowReplay())
            replay.dropped_packets += 1
            replay.dropped_bytes += event.size
            replay.drop_reasons[event.reason] = (
                replay.drop_reasons.get(event.reason, 0) + 1
            )
        elif isinstance(event, DepartEvent):
            replay = replays.setdefault(event.flow_id, FlowReplay())
            replay.departed_packets += 1
            replay.departed_bytes += event.size
    return replays
