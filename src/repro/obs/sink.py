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
from repro.obs.events import EVENT_TYPES, TRACE_SCHEMA, event_to_dict

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

    __slots__ = ("_ring", "_emitted", "_tees")

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._ring: deque = deque(maxlen=capacity)
        self._emitted = 0
        self._tees: list = []

    @property
    def emitted(self) -> int:
        """Events recorded, retained or not: by :meth:`emit` and by each tee."""
        return self._emitted + sum(tee.emitted for tee in self._tees)

    def emit(self, event) -> None:
        self._ring.append(event)
        self._emitted += 1

    def kind_handlers(self, tee) -> dict:
        """Every event class to the deque's append: ``tee`` records with no frame."""
        self._tees.append(tee)
        return dict.fromkeys(EVENT_TYPES.values(), self._ring.append)

    def events(self) -> list:
        """The retained events, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()


class TeeSink:
    """Fan trace events out to several sinks, in argument order, for one frame an event.

    Components still see one sink behind one ``is not None`` guard.  A
    sink with ``kind_handlers(tee)`` gets the classes of the table it
    returns through its handlers, and counts every event of the tee (a
    :class:`RingSink` appends each to its deque, a monitor checks three
    kinds); any other sink gets every event through ``emit``.  Only the
    classes of ``EVENT_TYPES`` pass (RPR108 keeps every emitted class
    there); any other object raises :class:`ConfigurationError`.

    Args:
        *sinks: downstream sinks; at least one is required.
    """

    __slots__ = ("emitted", "_by_kind")

    def __init__(self, *sinks) -> None:
        if not sinks:
            raise ConfigurationError("TeeSink needs at least one downstream sink")
        self.emitted = 0
        by_kind: dict[type, list] = {kind: [] for kind in EVENT_TYPES.values()}
        for sink in sinks:
            route = getattr(sink, "kind_handlers", None)
            handlers = dict.fromkeys(by_kind, sink.emit) if route is None else route(self)
            for kind, handler in handlers.items():
                by_kind[kind].append(handler)
        self._by_kind = {kind: tuple(deliveries) for kind, deliveries in by_kind.items()}

    def emit(self, event) -> None:
        try:
            deliveries = self._by_kind[type(event)]
        except KeyError:
            raise ConfigurationError(f"TeeSink takes trace events, not {type(event)}") from None
        self.emitted += 1
        for deliver in deliveries:
            deliver(event)


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
