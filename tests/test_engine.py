"""Discrete-event engine behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tail_drop import TailDropManager
from repro.errors import SimulationError
from repro.obs.monitor import ConformanceMonitor
from repro.obs.timeline import Timeline
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort


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


#: Delays on a coarse grid, 0.0 included, so same-instant ties are common.
GRID = (0.0, 0.25, 0.5, 1.0)
ONE_SHOT_KINDS = ("schedule", "schedule_fast", "cancelled")
one_shot_strategy = st.tuples(st.sampled_from(GRID), st.sampled_from(ONE_SHOT_KINDS))

chains_strategy = st.lists(
    st.tuples(
        st.sampled_from(GRID),  # first firing
        st.lists(st.sampled_from(GRID), max_size=6),  # each later gap
        # per firing: a one-shot spawned before the reschedule, or none
        st.lists(st.one_of(st.none(), one_shot_strategy), max_size=6),
    ),
    min_size=1,
    max_size=4,
)
one_shots_strategy = st.lists(one_shot_strategy, max_size=6)


def one_shot(sim, log, delay, kind, name):
    """Queue a callback that only logs; ``cancelled`` queues and cancels one."""
    def note():
        log.append((sim.now, name))

    if kind == "schedule_fast":
        sim.schedule_fast(delay, note)
    else:
        event = sim.schedule(delay, note)
        if kind == "cancelled":
            event.cancel()


class Chain:
    """A callback that runs again: by ``schedule_fast`` as its last act, or by return."""

    def __init__(self, sim, log, name, gaps, spawns, returning):
        self.sim = sim
        self.log = log
        self.name = name
        self.gaps = gaps
        self.spawns = spawns
        self.returning = returning
        self.fired = 0

    def fire(self, *args):
        sim = self.sim
        k = self.fired
        self.fired += 1
        self.log.append((sim.now, self.name, args))
        spawn = self.spawns[k] if k < len(self.spawns) else None
        if spawn is not None:
            one_shot(sim, self.log, *spawn, f"{self.name}/{k}")
        if k >= len(self.gaps):
            return None
        if self.returning:
            return self.gaps[k]
        sim.schedule_fast(self.gaps[k], self.fire, *args)
        return None


def firing_log(chains, one_shots, returning, drive):
    sim = Simulator()
    log = []
    for i, (start, gaps, spawns) in enumerate(chains):
        chain = Chain(sim, log, f"c{i}", gaps, spawns, returning)
        sim.schedule_at(start, chain.fire, i, "arg")
    for j, (delay, kind) in enumerate(one_shots):
        one_shot(sim, log, delay, kind, f"o{j}")
    drive(sim)
    return log, sim.events_processed, sim.pending


def run_all(sim):
    sim.run()


def step_all(sim):
    while sim.step():
        pass


def resumed(cuts):
    def drive(sim):
        for cut in sorted(cuts):
            sim.run(until=cut)
        sim.run()

    return drive


class TestRequeue:
    """A callback that returns its next delay is re-queued exactly where
    ``schedule_fast`` as its last scheduling act would have put it."""

    @given(
        chains=chains_strategy,
        one_shots=one_shots_strategy,
        cuts=st.lists(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 2.0)), max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_order_identical_to_explicit_rescheduling(self, chains, one_shots, cuts):
        drives = (run_all, step_all, resumed(cuts))
        logs = [
            firing_log(chains, one_shots, returning, drive)
            for drive in drives
            for returning in (False, True)
        ]
        assert logs[0][0]
        assert all(log == logs[0] for log in logs)

    @pytest.mark.parametrize("bad", [float("nan"), -0.5, float("-inf")])
    @pytest.mark.parametrize("drive", [run_all, step_all])
    def test_bad_delay_raises(self, bad, drive):
        sim = Simulator()
        sim.schedule(1.0, lambda: bad)
        with pytest.raises(SimulationError, match="before current time"):
            drive(sim)
        assert sim.pending == 0

    @pytest.mark.parametrize("done", [None, True, 1, 0])
    @pytest.mark.parametrize("drive", [run_all, step_all])
    def test_anything_but_a_float_means_done(self, done, drive):
        sim = Simulator()
        fired = []

        def callback():
            fired.append(sim.now)
            return done

        sim.schedule_fast(1.0, callback)
        drive(sim)
        assert fired == [1.0]
        assert sim.pending == 0

    def test_requeued_entry_carries_no_handle(self):
        sim = Simulator()
        fired = []

        def callback():
            fired.append(sim.now)
            return 1.0 if len(fired) < 3 else None

        event = sim.schedule(0.0, callback)
        sim.run()
        assert fired == [0.0, 1.0, 2.0]
        assert event.fired
        event.cancel()  # a fired handle: no phantom weight
        assert sim.cancelled_pending == 0

    def test_port_receive_scheduled_directly_still_works(self):
        # ``receive`` returns a bool: done, not a delay.
        sim = Simulator()
        port = OutputPort(sim, 1_000.0, FIFOScheduler(), TailDropManager(10_000.0))
        sim.schedule_at(0.5, port.receive, Packet(0, 500.0, 0.5))
        sim.run()
        assert port.admitted_packets == port.transmitted_packets == 1
        assert sim.now == 1.0
        assert sim.events_processed == 2

    def test_requeue_beyond_until_keeps_its_key(self):
        # At t=2 the re-queue for t=3 is the earliest entry, so the one
        # heap operation hands it straight back; past `until`, the loop
        # must push it back under the key it was given.
        def drive(cuts):
            sim = Simulator()
            log = []

            def tick():
                log.append(sim.now)
                return 1.0 if sim.now < 5.0 else None

            sim.schedule_fast(0.0, tick)
            sim.schedule_fast(3.5, log.append, "one-shot")
            keys = []
            for cut in cuts:
                sim.run(until=cut)
                keys.append((sim.now, sim.pending, sorted(entry[:2] for entry in sim._equeue._heap)))
            sim.run()
            return log, keys, sim.events_processed, sim.pending

        whole = drive([])
        cut = drive([2.5])
        # seqs 1 and 2 by scheduling, 3, 4 and 5 by return at t = 0, 1, 2
        assert cut[1] == [(2.5, 2, [(3.0, 5), (3.5, 2)])]
        assert cut[0] == whole[0] == [0.0, 1.0, 2.0, 3.0, "one-shot", 4.0, 5.0]
        assert cut[2:] == whole[2:] == (7, 0)

    @pytest.mark.parametrize("returning", [True, False])
    def test_max_events_leaves_the_last_requeue_pending(self, returning):
        # The firing that trips the limit has already re-queued itself,
        # by return or by `schedule_fast`; the raise leaves it queued,
        # with the entry the loop took next.
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if returning:
                return 1.0
            sim.schedule_fast(1.0, tick)
            return None

        sim.schedule_fast(0.0, tick)
        sim.schedule_fast(100.0, fired.append, "late")
        with pytest.raises(SimulationError, match="exceeded max_events=3"):
            sim.run(max_events=3)
        assert fired == [0.0, 1.0, 2.0, 3.0]
        assert sim.events_processed == 4
        assert sim.pending == 2  # the re-queue for t=4 and the "late" entry
        sim.run(until=5.5)
        assert fired == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert sim.pending == 2

    def test_callback_with_arguments_requeues_like_one_without(self):
        # The timeline's and the monitor's shape: a bound method with
        # arguments that returns its interval.
        def drive(*args):
            sim = Simulator()
            log = []

            def tick(*seen):
                log.append((sim.now, seen))
                return 0.5 if len(log) < 4 else None

            sim.schedule_fast(0.25, tick, *args)
            sim.run()
            return log, sim.events_processed, sim.pending

        bare = drive()
        with_args = drive("series", 7)
        assert [time for time, _ in bare[0]] == [time for time, _ in with_args[0]]
        assert [time for time, _ in bare[0]] == [0.25, 0.75, 1.25, 1.75]
        assert {seen for _, seen in bare[0]} == {()}
        assert {seen for _, seen in with_args[0]} == {("series", 7)}
        assert bare[1:] == with_args[1:] == (4, 0)

    @pytest.mark.parametrize("interval", [1, 1.0])
    def test_integer_intervals_tick_like_float_ones(self, interval):
        sim = Simulator()
        timeline = Timeline(interval)
        monitor = ConformanceMonitor(interval=interval)
        timeline.install(sim, 5.0)
        monitor.install(sim, 5.0)
        sim.run(until=5.0)
        assert timeline.ticks == monitor.sweeps == 5
