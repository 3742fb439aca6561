"""Discrete-event simulation engine.

A deliberately small, fast core: the :class:`Simulator` owns the clock,
the shared sequence counter and the scheduling API, and keeps pending
entries in one :class:`~repro.sim.equeue.EventQueue` (a binary heap).
Entries are ``(time, sequence, callback, args)`` tuples: the sequence
number breaks ties so that events scheduled for the same instant fire in
scheduling order, which makes runs deterministic for a given seed.  An
entry, once queued, fires: nothing in a simulation withdraws a scheduled
event, so the engine hands out no handle to withdraw one with.

Components (sources, shapers, ports) hold a reference to the
:class:`Simulator` and schedule their own callbacks; there is no global
registry; one that runs again returns its next delay as a ``float`` and
the queue re-queues it (``EventQueue.drain``).  The engine knows nothing
about packets or networking.
"""

from __future__ import annotations

from math import inf
from operator import attrgetter
from typing import Any, Callable

from repro.sim.equeue import EventQueue, past_time_error

__all__ = ["Simulator"]

_held_due = attrgetter("_due")


class Simulator:
    """Event loop with a monotonically advancing clock.

    Usage::

        sim = Simulator()
        sim.schedule_fast(1.0, callback, arg1, arg2)
        sim.run(until=10.0)

    :meth:`schedule_fast` takes a delay and :meth:`schedule_at` an
    absolute time; both return ``None``.  A callback that reschedules
    itself as its last act returns the delay instead.
    """

    __slots__ = (
        "now",
        "_equeue",
        "_push",
        "_seq",
        "_events_processed",
        "_event_limit",
        "_holders",
        "_fired_seq",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self._equeue = EventQueue(self)
        self._push = self._equeue.raw_push()
        self._seq: int = 0
        self._events_processed: int = 0
        self._event_limit: float = inf  # run's max_events as a count; replays check it too
        # Components that make some of their events themselves: a backlogged
        # shaper pulling its source (-> None) and a busy link nothing else
        # watches (-> True: a mid-run reader settles it first).  Each has
        # `_due`, its earliest held event's time (`inf`: none), and
        # `_replay(due, seq=inf)`, which makes what fires before an event
        # keyed (due, seq); `drain` makes what is due by `until`.
        self._holders: dict = {}
        self._fired_seq: int = 0  # the seq of the entry firing (or last fired)

    @property
    def events_processed(self) -> int:
        """Events fired; a pulled emission or departure counts as the event it replaces."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of entries still queued (work a holder keeps is not among them)."""
        return len(self._equeue)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if not time >= self.now:  # `not >=`, so that a NaN key raises too
            raise past_time_error(time, self.now)
        self._seq += 1
        self._push((time, self._seq, fn, args))

    def schedule_fast(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` seconds from now.

        The same entry as ``schedule_at(now + delay, ...)``: both take
        their rank from one shared sequence counter, which keeps runs
        byte-identical whichever entry point a component uses.
        """
        time = self.now + delay
        if not time >= self.now:  # `not >=`, so that a NaN key raises too
            raise past_time_error(time, self.now)
        self._seq += 1
        self._push((time, self._seq, fn, args))

    def step(self) -> bool:
        """Fire the next event: the earliest entry, or held work that comes first.

        Returns ``False`` when nothing is queued or held, ``True`` otherwise.
        """
        self._event_limit = inf
        entry = self._equeue.pop_live()
        time, seq = (inf, inf) if entry is None else entry[:2]
        if self._fire_held(time, seq):
            if entry is not None:  # it waits under its own key
                self._push(entry)
            return True
        if entry is None:
            return False
        time, seq, fn, args = entry
        self.now = time
        self._fired_seq = seq
        self._events_processed += 1
        delay = fn(*args)
        if delay.__class__ is float:  # the re-queue rule of EventQueue.drain
            self.schedule_fast(delay, fn, *args)
        return True

    def _fire_held(self, time: float, seq: float) -> bool:
        """Make the earliest held event if it fires before one keyed ``(time, seq)``."""
        held = min(self._holders, key=_held_due, default=None)
        if held is None or held._due > time:
            return False
        made = self._events_processed
        held._replay(held._due, inf if held._due < time else seq)
        return self._events_processed > made

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this time; the clock is
                left at ``until`` so measurement windows have an exact end.
                ``None`` runs until the queue drains.
            max_events: optional safety valve for tests; raises
                :class:`SimulationError` when exceeded (replays count).

        The loop consumes each entry exactly once.  An entry beyond
        ``until`` is left queued under its original ``(time, seq)`` key,
        so firing order across resumed runs is unchanged.
        """
        self._event_limit = inf if max_events is None else self._events_processed + max_events
        self._equeue.drain(inf if until is None else until, max_events)
        if until is not None and self.now < until:
            self.now = until
