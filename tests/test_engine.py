"""Discrete-event engine behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_fires_callback_with_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(4.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [4.0]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]

    def test_run_until_leaves_clock_at_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_keeps_pending_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert sim.pending == 1
        sim.run(until=6.0)
        assert fired == ["late"]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "boundary")
        sim.run(until=2.0)
        assert fired == ["boundary"]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1


class TestHeapCompaction:
    """Cancel-heavy workloads must not grow the heap without bound."""

    def test_mass_cancellation_shrinks_heap(self):
        # Regression: before compaction, 10k cancelled events with far-off
        # deadlines would sit in the heap until their time was reached.
        sim = Simulator()
        keeper = sim.schedule(1e9, lambda: None)
        events = [sim.schedule(1e6 + i, lambda: None) for i in range(10_000)]
        for event in events:
            event.cancel()
        assert sim.pending < 100
        assert sim.compactions > 0
        assert not keeper.cancelled

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        order = []
        doomed = []
        for i in range(150):
            sim.schedule(float(2 * i), order.append, i)
            doomed.append(sim.schedule(float(2 * i + 1), order.append, -i))
        # Two doomed cohorts so cancellations clearly exceed half the heap.
        doomed.extend(sim.schedule(1000.0 + i, order.append, -i) for i in range(150))
        for event in doomed:
            event.cancel()
        assert sim.compactions > 0
        sim.run()
        assert order == list(range(150))

    def test_small_heaps_skip_compaction(self):
        # Below COMPACT_MIN_PENDING lazy deletion is cheaper than a rebuild.
        sim = Simulator()
        for _ in range(10):
            sim.schedule(1.0, lambda: None).cancel()
        assert sim.compactions == 0
        assert sim.cancelled_pending == 10

    def test_pop_of_cancelled_event_rebalances_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.cancelled_pending == 0

    def test_cancel_during_run_is_safe(self):
        # A callback cancelling enough events to trigger a compaction must
        # not desynchronise the loop's view of the heap.
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(10.0 + i, fired.append, -i) for i in range(100)]

        def cancel_all():
            for event in doomed:
                event.cancel()

        sim.schedule(1.0, cancel_all)
        sim.schedule(2.0, fired.append, "survivor")
        sim.run()
        assert fired == ["survivor"]
        assert sim.compactions > 0


class TestStep:
    def test_step_fires_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step()
        assert fired == [1]

    def test_step_on_empty_heap_returns_false(self):
        assert not Simulator().step()

    def test_step_skips_cancelled(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a").cancel()
        sim.schedule(2.0, fired.append, "b")
        assert sim.step()
        assert fired == ["b"]


class TestScheduleFast:
    """The handle-free hot path: same ordering, no Event allocation."""

    def test_returns_no_handle(self):
        sim = Simulator()
        assert sim.schedule_fast(1.0, lambda: None) is None

    def test_fires_with_args(self):
        sim = Simulator()
        seen = []
        sim.schedule_fast(1.0, seen.append, "x")
        sim.run()
        assert seen == ["x"]
        assert sim.now == 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_fast(-0.1, lambda: None)

    def test_ties_break_in_scheduling_order_across_both_apis(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule_fast(1.0, order.append, "b")
        sim.schedule(1.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_counts_toward_pending_and_processed(self):
        sim = Simulator()
        sim.schedule_fast(1.0, lambda: None)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 1

    def test_max_events_budget_still_enforced(self):
        sim = Simulator()

        def loop():
            sim.schedule_fast(0.1, loop)

        sim.schedule_fast(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestScheduleGuards:
    """No entry point lets a negative or NaN time reach the queue."""

    @pytest.mark.parametrize("entry", ["schedule", "schedule_at", "schedule_fast"])
    @pytest.mark.parametrize("bad", [-0.1, float("nan")])
    def test_negative_and_nan_times_raise(self, entry, bad):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        # schedule_at takes an absolute time: now + bad is in the past or NaN.
        argument = sim.now + bad if entry == "schedule_at" else bad
        with pytest.raises(SimulationError):
            getattr(sim, entry)(argument, lambda: None)
        assert sim.pending == 0


class TestRunAccounting:
    """run() keeps the pending/cancelled books exactly like step() did."""

    def test_cancelled_pending_drained_by_run(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(i * 0.1, fired.append, i) for i in range(10)]
        for event in events[::2]:
            event.cancel()
        assert sim.cancelled_pending == 5
        assert sim.pending == 10
        sim.run()
        assert fired == [1, 3, 5, 7, 9]
        assert sim.cancelled_pending == 0
        assert sim.pending == 0

    def test_cancelled_event_beyond_until_still_drained(self):
        # Legacy semantics: the drain happens when the cancelled entry
        # reaches the top of the heap, even past the `until` horizon.
        sim = Simulator()
        live = []
        sim.schedule(5.0, live.append, "late").cancel()
        sim.run(until=1.0)
        assert sim.cancelled_pending == 0
        assert sim.pending == 0
        assert live == []

    def test_live_event_beyond_until_survives(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=1.0)
        assert sim.now == 1.0
        assert fired == []
        assert sim.pending == 1
        sim.run()
        assert fired == ["late"]
        assert sim.now == 5.0

    def test_callbacks_see_live_event_counter(self):
        # Callbacks may read events_processed mid-run (a timeline probe
        # can sample it); the fast loop must not batch the updates.
        sim = Simulator()
        seen = []
        for i in range(3):
            sim.schedule_fast(float(i), lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == [1, 2, 3]
