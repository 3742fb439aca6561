"""The event queue's contract, exercised through the simulator.

The engine-level API (scheduling, run/until, guards) is pinned in
``test_engine.py``; this file pins what :mod:`repro.sim.equeue` owns:
the ``(time, seq)`` firing order, entry consumption, the lazy-deletion
counters and the compaction rule.
"""

from __future__ import annotations

import pytest

from repro.obs.sink import RingSink
from repro.sim.engine import Simulator
from repro.sim.equeue import COMPACT_MIN_PENDING, EventQueue


def test_simulator_takes_no_arguments():
    with pytest.raises(TypeError):
        Simulator("heap")
    with pytest.raises(TypeError):
        Simulator(equeue="heap")


class TestOrdering:
    """Callbacks fire in ``(time, scheduling sequence)`` order."""

    def test_mixed_program_fires_in_time_then_sequence_order(self):
        # Ties at equal timestamps, mixed scheduling APIs, a cancel, and
        # a callback that schedules more work mid-run.
        sim = Simulator()
        fired = []
        expected = []
        for i in range(40):
            delay = (i * 37 % 11) * 0.25
            expected.append((delay, i))
            if i % 2:
                sim.schedule_fast(delay, fired.append, (delay, i))
            else:
                sim.schedule(delay, fired.append, (delay, i))
        doomed = sim.schedule(1.0, fired.append, ("doomed", -1))
        doomed.cancel()
        sim.schedule(0.5, lambda: sim.schedule_fast(0.25, fired.append, ("inner", -2)))
        sim.run()
        assert ("doomed", -1) not in fired
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
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_callback_exception_consumes_the_entry(self):
        # A user exception escaping run() must not re-fire the event
        # that raised: the entry was consumed before the callback ran.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: 1 / 0)
        sim.schedule(2.0, fired.append, "later")
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
            push((float(t), t, (lambda: None), (), None))
        assert len(queue) == 3
        assert [queue.pop_live()[0] for _ in range(3)] == [1.0, 2.0, 3.0]
        assert len(queue) == 0
        assert queue.pop_live() is None


class TestCompaction:
    """Rebuild once cancelled entries outnumber live ones in >= 64."""

    def test_trigger_point(self):
        sim = Simulator()
        handles = [sim.schedule(float(i), lambda: None) for i in range(100)]
        for handle in handles[:50]:
            handle.cancel()
        assert sim.compactions == 0
        # 51 cancelled of 100 pending crosses the half-dead mark.
        handles[50].cancel()
        assert sim.compactions == 1
        assert sim.cancelled_pending == 0
        assert sim.pending == 49
        sim.run()
        assert sim.events_processed == 49

    def test_small_populations_never_compact(self):
        sim = Simulator()
        handles = [
            sim.schedule(float(i), lambda: None) for i in range(COMPACT_MIN_PENDING - 1)
        ]
        for handle in handles:
            handle.cancel()
        assert sim.compactions == 0
        assert sim.cancelled_pending == COMPACT_MIN_PENDING - 1
        sim.run()
        assert sim.events_processed == 0

    def test_compact_emits_trace_event(self):
        sink = RingSink()
        sim = Simulator()
        sim.attach_trace(sink)
        handles = [sim.schedule(float(i), lambda: None) for i in range(100)]
        for handle in handles[:51]:
            handle.cancel()
        compacts = [e for e in sink.events() if type(e).kind == "compact"]
        assert len(compacts) == 1
        assert compacts[0].removed == 51
        assert compacts[0].remaining == 49

    def test_mid_drain_compaction_keeps_the_loop_consistent(self):
        # A callback cancelling most of the future while run() holds the
        # heap in a local: the in-place rebuild must neither lose nor
        # re-fire anything, and the cancelled weight is fully reclaimed.
        sim = Simulator()
        fired = []
        handles = [sim.schedule(2.0 + i * 0.01, fired.append, i) for i in range(80)]

        def massacre():
            for handle in handles[:60]:
                handle.cancel()

        sim.schedule(1.0, massacre)
        sim.run()
        assert fired == list(range(60, 80))
        assert sim.events_processed == 21
        assert sim.compactions == 1
        assert sim.cancelled_pending == 0
        assert sim.pending == 0

    def test_counters_survive_run_until_overshoot(self):
        # Entries beyond ``until`` stay queued with their cancelled /
        # compaction bookkeeping intact across resumes.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        late_live = sim.schedule(5.0, fired.append, "late")
        late_dead = sim.schedule(6.0, fired.append, "dead")
        late_dead.cancel()
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0
        assert sim.cancelled_pending == 1
        assert sim.pending == 2
        sim.run()
        assert fired == ["early", "late"]
        assert sim.cancelled_pending == 0
        assert not late_live.cancelled and late_live.fired

    def test_cancel_after_fire_is_a_counter_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()
        assert not handle.cancelled
        assert sim.cancelled_pending == 0

    def test_engine_gauges_report_the_queue_counters(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        assert sim.pending == 1
        assert sim.cancelled_pending == 1
        assert sim.compactions == 0
