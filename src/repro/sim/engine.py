"""Discrete-event simulation engine.

A deliberately small, fast core: the :class:`Simulator` owns the clock,
the shared sequence counter and the scheduling API, and keeps pending
entries in one :class:`~repro.sim.equeue.EventQueue` (a lazy-delete
binary heap).  Entries are ``(time, sequence, callback, args, handle)``
tuples: the sequence number breaks ties so that events scheduled for the
same instant fire in scheduling order, which makes runs deterministic
for a given seed.  The ``handle`` slot is an :class:`Event` for
cancellable events and ``None`` for events scheduled through the
:meth:`Simulator.schedule_fast` hot path — the per-packet traffic of a
simulation never cancels, so it never pays for the allocation of a
cancellation handle.

Components (sources, shapers, ports) hold a reference to the
:class:`Simulator` and schedule their own callbacks; there is no global
registry; one that runs again returns its next delay as a ``float`` and
the queue re-queues it (``EventQueue.drain``).  The engine knows nothing
about packets or networking.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable

from repro.sim.equeue import EventQueue, past_time_error

__all__ = ["Simulator"]


class Event:
    """Handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`;
    the only supported operation is :meth:`cancel`.  Cancelled events stay
    queued but are skipped when reached (lazy deletion); the queue
    purges them wholesale once they dominate the pending population.
    Events scheduled via :meth:`Simulator.schedule_fast` have no handle
    and cannot be cancelled.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "fired", "_sim")

    def __init__(
        self, time: float, fn: Callable[..., Any], args: tuple, sim: "Simulator | None" = None
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent.

        Cancelling an event that has already fired is a no-op: the entry
        left the queue when it fired, so counting it as cancelled-pending
        would leak phantom weight into the compaction trigger (teardown
        code routinely cancels timers without knowing whether they beat
        it to the clock).
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._equeue.note_cancelled()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.6f}, fn={name}, {state})"


class Simulator:
    """Event loop with a monotonically advancing clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, callback, arg1, arg2)
        sim.run(until=10.0)

    Hot paths that never cancel should use :meth:`schedule_fast`, which
    skips the :class:`Event` handle allocation entirely; a callback that
    reschedules itself as its last act returns the delay instead.
    """

    __slots__ = (
        "now",
        "_equeue",
        "_push",
        "_seq",
        "_events_processed",
        "_sink",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._equeue = EventQueue(self)
        self._push = self._equeue.raw_push()
        self._seq: int = 0
        self._events_processed: int = 0
        self._sink = None

    @property
    def events_processed(self) -> int:
        """Number of events that have fired (cancelled ones excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued, including cancelled ones."""
        return len(self._equeue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots."""
        return self._equeue.cancelled_pending

    @property
    def compactions(self) -> int:
        """Times the queue was rebuilt to purge cancelled events."""
        return self._equeue.compactions

    def attach_trace(self, sink) -> None:
        """Emit engine events (heap compactions) into ``sink``.

        Pass ``None`` to detach.  Untraced simulators pay a single
        ``is not None`` check per housekeeping action and nothing per
        event.
        """
        self._sink = sink

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if not time >= self.now:  # `not >=`, so that a NaN key raises too
            raise past_time_error(time, self.now)
        event = Event(time, fn, args, self)
        self._seq += 1
        self._push((time, self._seq, fn, args, event))
        return event

    def schedule_fast(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now, uncancellably.

        The hot-path twin of :meth:`schedule`: no :class:`Event` handle is
        allocated, so the caller gets nothing back and the event cannot be
        cancelled.  Firing order relative to :meth:`schedule` is identical
        (one shared sequence counter), which keeps runs byte-identical
        whichever entry point a component uses.
        """
        time = self.now + delay
        if not time >= self.now:  # `not >=`, so that a NaN key raises too
            raise past_time_error(time, self.now)
        self._seq += 1
        self._push((time, self._seq, fn, args, None))

    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``False`` when the queue is empty, ``True`` otherwise.
        """
        entry = self._equeue.pop_live()
        if entry is None:
            return False
        event = entry[4]
        if event is not None:
            event.fired = True
        self.now = entry[0]
        self._events_processed += 1
        delay = entry[2](*entry[3])
        if delay.__class__ is float:  # the re-queue rule of EventQueue.drain
            self.schedule_fast(delay, entry[2], *entry[3])
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time; the clock is
                left at ``until`` so measurement windows have an exact end.
                ``None`` runs until the queue drains.
            max_events: optional safety valve for tests; raises
                :class:`SimulationError` when exceeded.

        The loop consumes each entry exactly once.  An entry beyond
        ``until`` is left queued under its original ``(time, seq)`` key,
        so firing order across resumed runs is unchanged — as are the
        ``cancelled_pending``/``compactions`` counters, which live on the
        queue and are never reset by an overshoot.  Handle-free entries
        (:meth:`schedule_fast`) skip the cancelled-event branch entirely.
        """
        self._equeue.drain(inf if until is None else until, max_events)
        if until is not None and self.now < until:
            self.now = until
