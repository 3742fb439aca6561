"""The engine's event queue: a lazy-delete binary heap.

The :class:`~repro.sim.engine.Simulator` owns the clock, the sequence
counter and the scheduling API; storing and draining pending entries is
this module's job.  Entries are ``(time, seq, fn, args, handle)`` tuples
ordered by their ``(time, seq)`` prefix; ``handle`` is an
:class:`~repro.sim.engine.Event` for cancellable entries and ``None``
for ``schedule_fast`` ones.

The simulator talks to the queue through five methods:

* ``raw_push()`` hands out the push callable the simulator caches for
  the life of the run (a C-level ``partial(heappush, heap)``);
* ``pop_live()`` removes and returns the earliest non-cancelled entry;
* ``drain(stop, max_events)`` owns the run loop: it fires entries in
  ``(time, seq)`` order, re-queues a callback that returns a delay,
  skips cancelled ones, stops *before* the first live entry beyond
  ``stop`` (leaving it queued), and raises ``SimulationError`` once
  more than ``max_events`` entries have fired;
* ``note_cancelled()`` is the lazy-deletion bookkeeping hook: cancelled
  entries stay queued until reached, and the heap is rebuilt without
  them once they outnumber the live ones in a population of at least
  :data:`COMPACT_MIN_PENDING`;
* ``len()`` is the pending population, cancelled entries included.

There is one queue on purpose; ``docs/engine.md`` records the numbers
behind that and what would reopen the question.
"""

from __future__ import annotations

import heapq
from functools import partial
from math import inf
from typing import Callable

from repro.errors import SimulationError
from repro.obs.events import HeapCompactEvent

__all__ = ["EventQueue", "past_time_error"]

#: Smallest pending population worth compacting; below this lazy
#: deletion is cheaper than a rebuild.
COMPACT_MIN_PENDING = 64


def past_time_error(time: float, now: float) -> SimulationError:
    """The one refusal of an entry keyed before the clock, or at NaN."""
    return SimulationError(f"cannot schedule event at t={time} before current time t={now}")


class EventQueue:
    """Pending-event storage for one :class:`~repro.sim.engine.Simulator`.

    ``cancelled_pending`` counts cancelled entries still occupying heap
    slots, ``compactions`` the rebuilds that purged them; both survive a
    ``run(until=)`` overshoot because they live here, not in the loop.
    """

    __slots__ = ("_heap", "_sim", "cancelled_pending", "compactions")

    def __init__(self, sim) -> None:
        self._heap: list[tuple] = []
        self._sim = sim
        self.cancelled_pending = 0
        self.compactions = 0

    def raw_push(self) -> Callable[[tuple], None]:
        return partial(heapq.heappush, self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel`; compacts once dead weight dominates.

        Cancel-heavy workloads (shapers, adaptive managers) would
        otherwise grow the heap without bound: lazily-deleted entries are
        only reclaimed when their time is reached.
        """
        self.cancelled_pending += 1
        heap_size = len(self._heap)
        if heap_size >= COMPACT_MIN_PENDING and self.cancelled_pending * 2 > heap_size:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        The ``(time, seq)`` keys of live entries are untouched, so firing
        order is exactly what lazy deletion would have produced.  The
        list is rebuilt in place: ``drain`` and the cached push callable
        hold aliases to it and a cancel can arrive from a callback
        mid-loop.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [
            entry for entry in heap if entry[4] is None or not entry[4].cancelled
        ]
        heapq.heapify(heap)
        self.cancelled_pending = 0
        self.compactions += 1
        sim = self._sim
        if sim._sink is not None:
            sim._sink.emit(
                HeapCompactEvent(sim.now, before - len(heap), len(heap))
            )

    def pop_live(self) -> tuple | None:
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            event = entry[4]
            if event is not None and event.cancelled:
                if self.cancelled_pending:
                    self.cancelled_pending -= 1
                continue
            return entry
        return None

    def drain(self, stop: float, max_events: int | None) -> None:
        """Fire entries up to ``stop``; re-queue each callback that returns a float.

        It goes back at ``now + delay`` with the rank and guard
        ``schedule_fast`` as its last scheduling act would give it; any
        other return means done.  A callback that queues anything after
        its own next firing (churn's ``_arrival``) must call ``schedule_fast``.
        A re-queue is one ``heappushpop``: it pushes the entry back and
        hands out the next one to fire, which is the earliest of the two
        because ``(time, seq)`` keys are unique.  The entry in hand is
        pushed back when the loop stops before firing it.
        """
        sim = self._sim
        heap = self._heap
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        limit = inf if max_events is None else max_events
        fired = 0
        entry = heappop(heap) if heap else None
        while entry is not None:
            event = entry[4]
            if event is not None and event.cancelled:
                if self.cancelled_pending:
                    self.cancelled_pending -= 1
                entry = heappop(heap) if heap else None
                continue
            time = entry[0]
            if time > stop:
                heapq.heappush(heap, entry)
                break
            if event is not None:
                event.fired = True
            sim.now = time
            sim._events_processed += 1
            fn = entry[2]
            args = entry[3]
            delay = fn(*args) if args else fn()
            if delay.__class__ is float:
                again = time + delay
                if not again >= time:  # `not >=`, so that a NaN delay raises too
                    raise past_time_error(again, time)
                sim._seq += 1
                entry = heappushpop(heap, (again, sim._seq, fn, args, None))
            else:
                entry = heappop(heap) if heap else None
            fired += 1
            if fired > limit:
                if entry is not None:
                    heapq.heappush(heap, entry)
                raise SimulationError(f"exceeded max_events={max_events}")
