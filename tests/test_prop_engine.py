"""Property-based tests: event-engine ordering and determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=200,
)


class TestOrdering:
    @given(delays=delays)
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule_fast(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(delays=delays)
    @settings(max_examples=100, deadline=None)
    def test_ties_break_by_schedule_order(self, delays):
        sim = Simulator()
        fired = []
        for index, delay in enumerate(delays):
            sim.schedule_fast(delay, fired.append, (delay, index))
        sim.run()
        # Stable sort of (time, schedule index).
        assert fired == sorted(fired)

    @given(delays=delays, until_fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_run_until_is_a_clean_prefix(self, delays, until_fraction):
        horizon = max(delays) * until_fraction
        sim_full = Simulator()
        full = []
        for index, delay in enumerate(delays):
            sim_full.schedule_fast(delay, full.append, index)
        sim_full.run()

        sim_split = Simulator()
        split = []
        for index, delay in enumerate(delays):
            sim_split.schedule_fast(delay, split.append, index)
        sim_split.run(until=horizon)
        prefix_length = len(split)
        sim_split.run()
        # Splitting a run at any point never changes the event sequence.
        assert split == full
        assert all(delays[i] <= horizon for i in split[:prefix_length])

    @given(delays=delays)
    @settings(max_examples=60, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule_fast(delay, lambda: observed.append(sim.now))
        last = -1.0
        while sim.step():
            assert sim.now >= last
            last = sim.now
