"""Buffer sharing with headroom and holes (Section 3.3)."""

import math

import pytest

from repro.core.shared_headroom import SharedHeadroomManager
from repro.errors import ConfigurationError


def make_manager(capacity=1000.0, thresholds=None, headroom=200.0):
    if thresholds is None:
        thresholds = {0: 300.0, 1: 300.0}
    return SharedHeadroomManager(capacity, thresholds, headroom)


class TestInitialCounters:
    def test_headroom_starts_at_cap(self):
        manager = make_manager(capacity=1000.0, headroom=200.0)
        assert manager.headroom == 200.0
        assert manager.holes == 800.0

    def test_headroom_clipped_to_capacity(self):
        manager = make_manager(capacity=100.0, headroom=200.0)
        assert manager.headroom == 100.0
        assert manager.holes == 0.0

    def test_invariant_holds_initially(self):
        manager = make_manager()
        assert manager.holes + manager.headroom + manager.total_occupancy == (
            pytest.approx(manager.capacity)
        )


class TestWithinReservation:
    def test_admitted_when_buffer_has_space(self):
        manager = make_manager()
        assert manager.try_admit(0, 300.0)

    def test_never_stricter_than_fixed_partition(self):
        # An in-profile packet is admitted exactly when it fits: fill the
        # holes entirely via another flow, headroom still serves flow 0.
        manager = make_manager(capacity=1000.0, thresholds={0: 300.0, 1: 0.0},
                               headroom=300.0)
        # Flow 1 has no reservation: it may take the holes (700).
        assert manager.try_admit(1, 700.0)
        assert manager.holes == 0.0
        # Flow 0 within reservation is served from headroom.
        assert manager.try_admit(0, 300.0)
        assert manager.headroom == 0.0

    def test_dropped_when_nothing_left(self):
        manager = make_manager(capacity=1000.0, thresholds={0: 600.0, 1: 0.0},
                               headroom=300.0)
        manager.try_admit(1, 700.0)
        manager.try_admit(0, 300.0)
        assert not manager.try_admit(0, 100.0)  # within T but buffer full

    def test_holes_consumed_before_headroom(self):
        manager = make_manager(capacity=1000.0, thresholds={0: 500.0}, headroom=200.0)
        manager.try_admit(0, 300.0)
        assert manager.holes == 500.0
        assert manager.headroom == 200.0


class TestBeyondReservation:
    def test_excess_served_from_holes(self):
        manager = make_manager(capacity=1000.0, thresholds={0: 100.0}, headroom=200.0)
        manager.try_admit(0, 100.0)  # fills reservation
        assert manager.try_admit(0, 300.0)  # 300 excess <= holes (700)
        assert manager.holes == pytest.approx(400.0)
        assert manager.headroom == 200.0  # untouched

    def test_excess_capped_by_remaining_holes(self):
        # "the amount of additional buffer space that a flow can grab,
        # cannot exceed the amount of holes that are left"
        manager = make_manager(capacity=1000.0, thresholds={0: 100.0}, headroom=200.0)
        manager.try_admit(0, 100.0)
        assert manager.try_admit(0, 350.0)  # excess 350, holes 700 -> ok
        # Now holes = 350; flow's excess is 350; another 350 would make
        # excess 700 > holes 350 -> reject.
        assert not manager.try_admit(0, 350.0)

    def test_excess_never_touches_headroom(self):
        manager = make_manager(capacity=400.0, thresholds={0: 100.0}, headroom=300.0)
        manager.try_admit(0, 100.0)
        # holes = 100; a 200-byte excess packet needs 200 from holes.
        assert not manager.try_admit(0, 200.0)
        assert manager.headroom == 300.0

    def test_straddling_packet_treated_as_excess(self):
        manager = make_manager(capacity=1000.0, thresholds={0: 150.0}, headroom=200.0)
        manager.try_admit(0, 100.0)
        # occupancy 100 + 100 > T=150: above-threshold path, holes only.
        assert manager.try_admit(0, 100.0)
        assert manager.headroom == 200.0

    def test_unreserved_flow_uses_only_holes(self):
        manager = make_manager(capacity=1000.0, thresholds={}, headroom=400.0)
        assert manager.try_admit(9, 600.0)
        assert not manager.try_admit(9, 300.0)  # 900 > holes 600


class TestDepartures:
    def test_departure_refills_headroom_first(self):
        manager = make_manager(capacity=1000.0, thresholds={0: 500.0, 1: 0.0},
                               headroom=200.0)
        manager.try_admit(1, 800.0)  # holes 0, headroom 200
        manager.try_admit(0, 200.0)  # headroom -> 0
        manager.on_depart(0, 150.0)
        assert manager.headroom == 150.0
        assert manager.holes == 0.0

    def test_departure_overflow_becomes_holes(self):
        manager = make_manager(capacity=1000.0, thresholds={0: 500.0}, headroom=200.0)
        manager.try_admit(0, 500.0)  # holes 300, headroom 200
        manager.on_depart(0, 500.0)
        assert manager.headroom == 200.0  # capped at H
        assert manager.holes == 800.0

    def test_departure_with_headroom_already_at_cap_goes_to_holes(self):
        # Headroom sits exactly at H: the refill rule must route the
        # entire departure to holes without pushing headroom past cap.
        manager = make_manager(capacity=1000.0, thresholds={0: 500.0},
                               headroom=200.0)
        manager.try_admit(0, 400.0)  # holes 400, headroom 200 (at cap)
        manager.on_depart(0, 300.0)
        assert manager.headroom == 200.0
        assert manager.holes == 700.0
        assert manager.holes + manager.headroom + manager.total_occupancy == (
            pytest.approx(manager.capacity)
        )

    def test_departure_with_zero_headroom_cap_goes_to_holes(self):
        # H == 0 degenerates to complete sharing: there is no headroom
        # to refill, every departed byte becomes a hole.
        manager = SharedHeadroomManager(1000.0, {0: 500.0}, headroom=0.0)
        manager.try_admit(0, 500.0)
        manager.on_depart(0, 200.0)
        assert manager.headroom == 0.0
        assert manager.holes == 700.0
        assert manager.holes + manager.headroom + manager.total_occupancy == (
            pytest.approx(manager.capacity)
        )

    def test_departure_larger_than_headroom_deficit_splits(self):
        # Deficit below cap is 200; a 300-byte departure refills the
        # headroom to exactly H and the remaining 100 becomes holes.
        manager = make_manager(capacity=1000.0, thresholds={0: 400.0, 1: 0.0},
                               headroom=200.0)
        manager.try_admit(1, 800.0)  # holes 0, headroom 200
        manager.try_admit(0, 200.0)  # headroom 0: deficit 200
        manager.on_depart(1, 300.0)
        assert manager.headroom == 200.0
        assert manager.holes == 100.0
        assert manager.holes + manager.headroom + manager.total_occupancy == (
            pytest.approx(manager.capacity)
        )

    def test_invariant_after_mixed_operations(self):
        manager = make_manager()
        manager.try_admit(0, 250.0)
        manager.try_admit(1, 300.0)
        manager.on_depart(0, 250.0)
        manager.try_admit(1, 100.0)
        assert manager.holes + manager.headroom + manager.total_occupancy == (
            pytest.approx(manager.capacity)
        )


class TestZeroHeadroomAndValidation:
    def test_zero_headroom_means_full_sharing(self):
        manager = SharedHeadroomManager(1000.0, {0: 100.0}, headroom=0.0)
        assert manager.holes == 1000.0
        manager.try_admit(0, 100.0)
        assert manager.try_admit(0, 800.0)  # excess from holes freely

    def test_negative_headroom_rejected(self):
        with pytest.raises(ConfigurationError):
            SharedHeadroomManager(1000.0, {}, headroom=-1.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            SharedHeadroomManager(1000.0, {0: -5.0}, headroom=10.0)

    def test_headroom_equal_to_buffer_degenerates_to_fixed_partition(self):
        # With H >= B there are never holes, so above-threshold packets
        # are always dropped — exactly the fixed-partition behaviour.
        manager = SharedHeadroomManager(500.0, {0: 100.0}, headroom=500.0)
        assert manager.try_admit(0, 100.0)
        assert not manager.try_admit(0, 100.0)


class TestNaNRefused:
    """A NaN threshold would let every packet through the reservation test."""

    def test_nan_threshold_refused_at_construction(self):
        with pytest.raises(ConfigurationError, match="flow 1"):
            SharedHeadroomManager(1000.0, {1: math.nan}, headroom=200.0)

    def test_nan_default_threshold_refused(self):
        with pytest.raises(ConfigurationError, match="default threshold"):
            SharedHeadroomManager(1000.0, {}, headroom=200.0, default_threshold=math.nan)

    def test_nan_reprovision_refused_and_threshold_kept(self):
        manager = make_manager()
        with pytest.raises(ConfigurationError, match="flow 0"):
            manager.reprovision(0, math.nan)
        assert manager.threshold(0) == 300.0

    def test_nan_headroom_refused(self):
        with pytest.raises(ConfigurationError, match="headroom"):
            SharedHeadroomManager(1000.0, {0: 300.0}, headroom=math.nan)
