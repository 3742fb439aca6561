"""Trace sinks: where emitted events go.

Components never know which sink they feed — anything with an
``emit(event)`` method works (:class:`TraceSink` is a structural
protocol).  Two implementations cover the practical cases:

* :class:`RingSink` — bounded in-memory ring; keeps the most recent
  ``capacity`` events.  For tests, debugging and "what just happened"
  queries without unbounded memory growth.
* :class:`JsonlSink` — streams events to a JSON-Lines file, one object
  per line, with a schema header line.  For replayable traces and the
  ``repro obs trace`` CLI.

The disabled path is *no sink at all*: components default to
``_sink = None`` and guard emission with one ``is not None`` check, so
tracing costs nothing when off (the attached rows of ``tests/test_call_budget.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import deque
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError
from repro.obs.events import TRACE_SCHEMA, event_to_dict

__all__ = ["RingSink", "JsonlSink", "TeeSink"]


@runtime_checkable
class TraceSink(Protocol):
    """Structural interface: anything accepting emitted events."""

    def emit(self, event) -> None:
        """Record one trace event."""


class RingSink:
    """Keep the most recent ``capacity`` events in memory.

    Args:
        capacity: maximum events retained; older events are discarded
            silently (``emitted`` still counts them).
    """

    __slots__ = ("_ring", "emitted")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._ring: deque = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, event) -> None:
        self._ring.append(event)
        self.emitted += 1

    def events(self) -> list:
        """The retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()


class TeeSink:
    """Fan one event stream out to several sinks, in argument order.

    Lets a live consumer (e.g. a
    :class:`~repro.obs.monitor.ConformanceMonitor`) ride alongside a
    recording sink on the same attachment point — components still see a
    single sink and keep their one ``is not None`` guard.

    Args:
        *sinks: downstream sinks; at least one is required.
    """

    __slots__ = ("sinks", "emitted", "_emits")

    def __init__(self, *sinks) -> None:
        if not sinks:
            raise ConfigurationError("TeeSink needs at least one downstream sink")
        self.sinks = tuple(sinks)
        self.emitted = 0
        # Bound once: every event of an attached run passes through here.
        self._emits = tuple(sink.emit for sink in sinks)

    def emit(self, event) -> None:
        for emit in self._emits:
            emit(event)
        self.emitted += 1


class JsonlSink:
    """Stream events to a JSON-Lines trace file.

    The first line is a header object (``{"schema": ..., "kind":
    "header"}``); every subsequent line is one event.  Usable as a
    context manager; :meth:`close` is idempotent.

    Args:
        path: trace file location; parent directories are created.
    """

    __slots__ = ("path", "emitted", "_fh")

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")
        self.emitted = 0
        self._fh.write(
            json.dumps({"kind": "header", "schema": TRACE_SCHEMA}) + "\n"
        )

    def emit(self, event) -> None:
        if self._fh is None:
            raise ConfigurationError(f"sink for {self.path} is closed")
        self._fh.write(json.dumps(event_to_dict(event)) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
