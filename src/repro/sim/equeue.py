"""The engine's event queue: a binary heap.

The :class:`~repro.sim.engine.Simulator` owns the clock, the sequence
counter and the scheduling API; storing and draining pending entries is
this module's job.  Entries are ``(time, seq, fn, args)`` tuples ordered
by their ``(time, seq)`` prefix; every queued entry fires.

The simulator talks to the queue through four methods:

* ``raw_push()`` hands out the push callable the simulator caches for
  the life of the run (a C-level ``partial(heappush, heap)``);
* ``pop_live()`` removes and returns the earliest entry, or ``None``;
* ``drain(stop, max_events)`` owns the run loop: it fires entries in
  ``(time, seq)`` order, re-queues a callback that returns a delay,
  stops *before* the first entry beyond ``stop`` (leaving it queued),
  replays held chains up to ``stop`` and raises ``SimulationError`` once
  ``events_processed`` passes the run's limit;
* ``len()`` is the pending population.

There is one queue on purpose; ``docs/engine.md`` records the numbers
behind that and what would reopen the question.
"""

from __future__ import annotations

import heapq
from functools import partial
from math import inf, nextafter
from typing import Callable

from repro.errors import SimulationError

__all__ = ["EventQueue", "past_time_error"]


def past_time_error(time: float, now: float) -> SimulationError:
    """The one refusal of an entry keyed before the clock, or at NaN."""
    return SimulationError(f"cannot schedule event at t={time} before current time t={now}")


class EventQueue:
    """Pending-event storage for one :class:`~repro.sim.engine.Simulator`."""

    __slots__ = ("_heap", "_sim")

    def __init__(self, sim) -> None:
        self._heap: list[tuple] = []
        self._sim = sim

    def raw_push(self) -> Callable[[tuple], None]:
        return partial(heapq.heappush, self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def pop_live(self) -> tuple | None:
        return heapq.heappop(self._heap) if self._heap else None

    def drain(self, stop: float, max_events: int | None) -> None:
        """Fire entries up to ``stop``; re-queue each callback that returns a float.

        It goes back at ``now + delay`` with the rank and guard
        ``schedule_fast`` as its last scheduling act would give it; any
        other return means done.  A callback that queues anything after
        its own next firing (churn's ``_arrival``) must call ``schedule_fast``.
        A re-queue is one ``heappushpop``: it pushes the entry back and
        hands out the next one to fire, which is the earliest of the two
        because ``(time, seq)`` keys are unique.  The entry in hand is
        pushed back when the loop stops; then held chains replay up to ``stop``.
        """
        sim = self._sim
        heap = self._heap
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        # With max_events, held emissions due before each event are made first.
        careful = -1 if max_events is not None else inf
        entry = heappop(heap) if heap else None
        while entry is not None:
            time, _, fn, args = entry
            if time > stop:
                heapq.heappush(heap, entry)
                break
            if sim._events_processed > careful:
                self._catch_up(nextafter(time, -inf), entry, max_events)
            sim.now = time
            sim._events_processed += 1
            delay = fn(*args) if args else fn()
            if delay.__class__ is float:
                again = time + delay
                if not again >= time:  # `not >=`, so that a NaN delay raises too
                    raise past_time_error(again, time)
                sim._seq += 1
                entry = heappushpop(heap, (again, sim._seq, fn, args))
            else:
                entry = heappop(heap) if heap else None
        self._catch_up(stop, None, max_events)

    def _catch_up(self, due: float, entry: tuple | None, max_events: int | None) -> None:
        """Make held emissions due by ``due``; past the limit, push ``entry`` back and raise."""
        sim = self._sim
        for holder in list(sim._holders):
            holder._replay(due)
        if sim._events_processed > sim._event_limit:
            if entry is not None:
                heapq.heappush(self._heap, entry)
            raise SimulationError(f"exceeded max_events={max_events}")
