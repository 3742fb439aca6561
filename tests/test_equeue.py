"""The event queue's contract, exercised through the simulator.

The engine-level API (scheduling, run/until, guards) is pinned in
``test_engine.py``; this file pins what :mod:`repro.sim.equeue` owns:
the ``(time, seq)`` firing order, entry consumption and the entry
format.
"""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.equeue import EventQueue


def test_simulator_takes_no_arguments():
    with pytest.raises(TypeError):
        Simulator("heap")
    with pytest.raises(TypeError):
        Simulator(equeue="heap")


class TestOrdering:
    """Callbacks fire in ``(time, scheduling sequence)`` order."""

    def test_mixed_program_fires_in_time_then_sequence_order(self):
        # Ties at equal timestamps, both scheduling APIs, and a callback
        # that schedules more work mid-run.
        sim = Simulator()
        fired = []
        expected = []
        for i in range(40):
            delay = (i * 37 % 11) * 0.25
            expected.append((delay, i))
            if i % 2:
                sim.schedule_fast(delay, fired.append, (delay, i))
            else:
                sim.schedule_at(delay, fired.append, (delay, i))
        sim.schedule_at(0.5, lambda: sim.schedule_fast(0.25, fired.append, ("inner", -2)))
        sim.run()
        # Scheduled at t=0.5 for t=0.75 after everything above, so it
        # follows every preloaded t=0.75 entry.
        inner = fired.index(("inner", -2))
        assert fired[inner - 1][0] == 0.75 and fired[inner + 1][0] == 1.0
        del fired[inner]
        assert fired == sorted(expected)
        assert sim.events_processed == 42
        assert sim.now == 2.5

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule_fast(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_callback_exception_consumes_the_entry(self):
        # A user exception escaping run() must not re-fire the event
        # that raised: the entry was consumed before the callback ran.
        sim = Simulator()
        fired = []
        sim.schedule_fast(1.0, lambda: 1 / 0)
        sim.schedule_fast(2.0, fired.append, "later")
        with pytest.raises(ZeroDivisionError):
            sim.run()
        sim.run()
        assert fired == ["later"]
        assert sim.events_processed == 2
        assert sim.pending == 0

    def test_step_and_run_interleave(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule_at(t, fired.append, t)
        assert sim.step()
        sim.run(until=2.5)
        assert sim.step()
        assert sim.step()
        assert not sim.step()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_raw_push_and_pop_live_speak_the_entry_format(self):
        queue = EventQueue(Simulator())
        push = queue.raw_push()
        for t in (3, 1, 2):
            push((float(t), t, (lambda: None), ()))
        assert len(queue) == 3
        assert [queue.pop_live()[0] for _ in range(3)] == [1.0, 2.0, 3.0]
        assert len(queue) == 0
        assert queue.pop_live() is None
