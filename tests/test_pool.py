"""Live buffer pools: accounting, transitions, rescale, observability."""

import pytest

from repro.core.pool import BufferPool
from repro.errors import ConfigurationError, SimulationError
from repro.obs import RingSink
from repro.obs.events import PoolEvent


def invariant(pool):
    return pool.reserved_total + pool.headroom + pool.holes


class TestConstruction:
    def test_starts_as_all_holes(self):
        pool = BufferPool(1000.0)
        assert pool.holes == 1000.0
        assert pool.headroom == 0.0
        assert pool.reserved_total == 0.0
        assert pool.available == 1000.0

    @pytest.mark.parametrize("capacity", [0.0, -1.0])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(ConfigurationError):
            BufferPool(capacity)


class TestReserve:
    def test_reserve_consumes_holes_first(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 300.0)
        pool.retire(1)  # headroom 300, holes 700
        pool.reserve(2, 800.0)
        assert pool.holes == 0.0
        assert pool.headroom == pytest.approx(200.0)
        assert invariant(pool) == pytest.approx(pool.capacity)

    def test_duplicate_reservation_rejected(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 100.0)
        with pytest.raises(ConfigurationError, match="already holds"):
            pool.reserve(1, 50.0)

    def test_overflow_rejected(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 900.0)
        assert not pool.can_reserve(200.0)
        with pytest.raises(ConfigurationError, match="exceeds"):
            pool.reserve(2, 200.0)
        assert invariant(pool) == pytest.approx(pool.capacity)

    def test_negative_amount_rejected(self):
        pool = BufferPool(1000.0)
        with pytest.raises(ConfigurationError):
            pool.can_reserve(-1.0)

    def test_exact_fit_admitted(self):
        # Equality is feasible in eq. 9; the pool must agree.
        pool = BufferPool(1000.0)
        pool.reserve(1, 600.0)
        assert pool.can_reserve(400.0)
        pool.reserve(2, 400.0)
        assert pool.available == pytest.approx(0.0)


class TestRetire:
    def test_retire_reclaims_into_headroom(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 250.0)
        assert pool.retire(1) == 250.0
        assert pool.headroom == 250.0
        assert pool.holes == 750.0
        assert 1 not in pool.reservations
        assert invariant(pool) == pytest.approx(pool.capacity)

    def test_retire_unknown_flow_rejected(self):
        with pytest.raises(ConfigurationError, match="no reservation"):
            BufferPool(1000.0).retire(9)


class TestReprovision:
    def test_growth_served_holes_first(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 200.0)
        pool.reprovision(1, 500.0)
        assert pool.reservations[1] == 500.0
        assert pool.holes == 500.0
        assert invariant(pool) == pytest.approx(pool.capacity)

    def test_shrink_returns_to_headroom(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 500.0)
        pool.reprovision(1, 200.0)
        assert pool.headroom == pytest.approx(300.0)
        assert pool.holes == 500.0
        assert invariant(pool) == pytest.approx(pool.capacity)

    def test_growth_beyond_pool_rejected(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 400.0)
        pool.reserve(2, 500.0)
        with pytest.raises(ConfigurationError, match="exceeds"):
            pool.reprovision(1, 600.0)

    def test_unknown_flow_rejected(self):
        pool = BufferPool(1000.0)
        with pytest.raises(ConfigurationError, match="no reservation"):
            pool.reprovision(1, 100.0)

    def test_negative_amount_rejected(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 100.0)
        with pytest.raises(ConfigurationError):
            pool.reprovision(1, -1.0)


class TestEffectiveThresholds:
    def test_footnote5_rescale_fills_capacity(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 100.0)
        pool.reserve(2, 300.0)
        effective = pool.effective_thresholds()
        assert effective[1] == pytest.approx(250.0)
        assert effective[2] == pytest.approx(750.0)
        assert sum(effective.values()) == pytest.approx(1000.0)

    def test_full_pool_returned_unscaled(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 1000.0)
        assert pool.effective_thresholds() == {1: 1000.0}

    def test_departure_redistributes_survivor_shares(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 200.0)
        pool.reserve(2, 200.0)
        before = pool.effective_thresholds()[1]
        pool.retire(2)
        after = pool.effective_thresholds()[1]
        assert after == pytest.approx(1000.0)
        assert after > before


class TestConsistency:
    def test_check_catches_corruption(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 100.0)
        pool.holes += 50.0
        with pytest.raises(SimulationError, match="invariant"):
            pool.check()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda pool: BufferPool(float("nan")),
            lambda pool: pool.reserve(2, float("nan")),
            lambda pool: pool.reprovision(1, float("nan")),
            lambda pool: (setattr(pool, "headroom", float("nan")), pool.check()),
            lambda pool: (setattr(pool, "holes", float("nan")), pool.check()),
        ],
        ids=["capacity", "reserve", "reprovision", "headroom", "holes"],
    )
    def test_nan_is_refused(self, corrupt):
        pool = BufferPool(1000.0)
        pool.reserve(1, 100.0)
        with pytest.raises((ConfigurationError, SimulationError)):
            corrupt(pool)

    def test_check_catches_negative_counters(self):
        pool = BufferPool(1000.0)
        pool.headroom = -1.0
        pool.holes = 1001.0
        with pytest.raises(SimulationError, match="negative"):
            pool.check()


class TestObservability:
    def test_transitions_emit_pool_events(self):
        pool = BufferPool(1000.0, node="a->b")
        sink = RingSink()
        clock = iter(float(t) for t in range(10))
        pool.attach_trace(sink, lambda: next(clock))
        pool.reserve(1, 400.0)
        pool.reprovision(1, 300.0)
        pool.retire(1)
        events = sink.events()
        assert [type(e) for e in events] == [PoolEvent] * 3
        assert events[0].reserved == 400.0
        assert events[1].headroom == pytest.approx(100.0)
        assert events[2].flows == 0
        for event in events:
            assert event.node == "a->b"
            assert (
                event.reserved + event.headroom + event.holes
                == pytest.approx(event.capacity)
            )

    def test_sink_without_clock_rejected(self):
        with pytest.raises(ConfigurationError, match="clock"):
            BufferPool(1000.0).attach_trace(RingSink(), None)

    def test_metrics_track_the_live_split(self):
        pool = BufferPool(1000.0)
        pool.reserve(1, 400.0)
        pool.retire(1)
        assert pool.headroom == 400.0
        assert pool.holes == 600.0
        assert len(pool.reservations) == 0
