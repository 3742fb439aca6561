"""RED buffer manager."""

from types import SimpleNamespace

import pytest

from repro.core.fred import FREDManager
from repro.core.red import REDManager
from repro.errors import ConfigurationError
from repro.obs.sink import RingSink
from repro.sim.rng import Generator, SeedSequence


def make_red(capacity=10_000.0, min_th=2_000.0, max_th=8_000.0, max_p=0.1,
             weight=0.5, seed=1):
    clock = SimpleNamespace(now=0.0)
    manager = REDManager(
        capacity, min_th, max_th, Generator(SeedSequence(seed)), clock,
        max_p=max_p, weight=weight,
    )
    return manager, clock


class TestValidation:
    def test_thresholds_must_be_ordered(self):
        clock = SimpleNamespace(now=0.0)
        rng = Generator(SeedSequence(0))
        with pytest.raises(ConfigurationError):
            REDManager(1000.0, 500.0, 400.0, rng, clock)
        with pytest.raises(ConfigurationError):
            REDManager(1000.0, 0.0, 400.0, rng, clock)

    def test_max_p_range(self):
        clock = SimpleNamespace(now=0.0)
        rng = Generator(SeedSequence(0))
        with pytest.raises(ConfigurationError):
            REDManager(1000.0, 100.0, 400.0, rng, clock, max_p=0.0)
        with pytest.raises(ConfigurationError):
            REDManager(1000.0, 100.0, 400.0, rng, clock, max_p=1.5)


class TestDropBehaviour:
    def test_all_accepted_below_min_threshold(self):
        manager, _ = make_red()
        for _ in range(3):
            assert manager.try_admit(0, 500.0)

    def test_all_dropped_above_max_threshold(self):
        manager, _ = make_red(weight=1.0)  # avg tracks queue exactly
        # Keep offering until the queue actually holds 8000 bytes
        # (probabilistic drops in the band may reject some offers).
        while manager.total_occupancy < 8_000.0:
            manager.try_admit(0, 1_000.0)
        # avg == 8000 >= max_th: forced drop.
        assert not manager.try_admit(0, 100.0)

    def test_probabilistic_drops_between_thresholds(self):
        manager, _ = make_red(weight=1.0, max_p=0.5, seed=3)
        # Fill to the middle of the band, then offer many packets.
        while manager.total_occupancy < 5_000.0:
            manager.try_admit(0, 1_000.0)
        outcomes = []
        for _ in range(100):
            admitted = manager.try_admit(0, 1.0)
            outcomes.append(admitted)
            if admitted:
                manager.on_depart(0, 1.0)  # hold queue steady
        assert any(outcomes) and not all(outcomes)

    def test_hard_drop_when_full(self):
        manager, _ = make_red(capacity=2_500.0, min_th=1_000.0, max_th=2_400.0)
        manager.try_admit(0, 1_000.0)
        manager.try_admit(0, 1_000.0)
        assert not manager.try_admit(0, 1_000.0)


class TestAverageQueue:
    def test_average_moves_towards_queue(self):
        manager, _ = make_red(weight=0.5)
        manager.try_admit(0, 4_000.0)
        first_avg = manager.avg
        manager.try_admit(0, 1_000.0)
        assert manager.avg > first_avg

    def test_average_decays_over_idle_period(self):
        manager, clock = make_red(weight=0.5)
        manager.try_admit(0, 4_000.0)
        manager.try_admit(0, 1_000.0)  # avg now reflects the 4000 backlog
        manager.on_depart(0, 4_000.0)
        manager.on_depart(0, 1_000.0)  # queue empty -> idle starts
        avg_before = manager.avg
        assert avg_before > 0.0
        clock.now = 1.0  # long idle: many tx slots
        manager.try_admit(0, 500.0)
        assert manager.avg < avg_before

    def test_no_flow_state(self):
        # RED is aggregate-only: per-flow occupancy is tracked by the base
        # class for accounting, but admission ignores which flow arrives.
        manager, _ = make_red(weight=1.0)
        for _ in range(5):
            manager.try_admit(1, 1_000.0)
        blocked_new = not manager.try_admit(2, 1.0)
        manager2, _ = make_red(weight=1.0)
        for _ in range(5):
            manager2.try_admit(1, 1_000.0)
        blocked_same = not manager2.try_admit(1, 1.0)
        assert blocked_new == blocked_same


def _red(clock):
    return REDManager(
        10_000.0, 2_000.0, 8_000.0, Generator(SeedSequence(1)), clock,
        max_p=0.1, weight=0.2,
    )


def _fred(clock):
    return FREDManager(
        20_000.0, 2_000.0, 8_000.0, Generator(SeedSequence(1)), clock,
        minq=1_000.0, maxq=4_000.0, max_p=0.1, weight=0.2,
    )


def _admissions(make, trace):
    """Decisions and averages of a fixed script with idle periods.

    The queue empties every fifth step, then sits idle; ``trace`` says
    what happens right after the first idle period starts: None
    (nothing), "detached" (a trace is attached and detached again) or
    "skewed" (a trace is attached whose clock is an hour ahead).
    """
    clock = SimpleNamespace(now=0.0)
    manager = make(clock)
    held, history = [], []
    for step in range(40):
        if step == 5 and trace is not None:
            manager.attach_trace(RingSink(), lambda: clock.now + 3600.0, "n")
            if trace == "detached":
                manager.attach_trace(None, None)
        clock.now += 0.001
        admitted = manager.try_admit(step % 3, 700.0)
        if admitted:
            held.append(step % 3)
        if step % 5 == 4:
            for flow_id in held:
                manager.on_depart(flow_id, 700.0)
            held.clear()
            clock.now += 0.003
        history.append((admitted, manager.avg))
    return history


@pytest.mark.parametrize("make", [_red, _fred])
class TestTraceClockIsNotTheIdleClock:
    def test_manager_works_after_the_trace_is_detached(self, make):
        # attach_trace(None) used to clear the clock RED and FRED read
        # for their idle decay: the next admission raised TypeError.
        assert _admissions(make, "detached") == _admissions(make, None)

    def test_a_skewed_trace_clock_moves_no_average(self, make):
        # ... and attaching used to swap the idle clock for the trace's,
        # so an idle period begun before the attach decayed for an hour.
        assert _admissions(make, "skewed") == _admissions(make, None)
