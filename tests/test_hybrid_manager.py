"""Composite buffer manager for the hybrid architecture."""

import pytest

from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.hybrid import HybridBufferManager
from repro.core.tail_drop import TailDropManager
from repro.errors import ConfigurationError


def make_hybrid():
    managers = [
        FixedThresholdManager(1000.0, {0: 400.0, 1: 400.0}),
        FixedThresholdManager(500.0, {2: 500.0}),
    ]
    class_of = {0: 0, 1: 0, 2: 1}
    return HybridBufferManager(class_of, managers), managers


class TestDelegation:
    def test_admission_goes_to_class_manager(self):
        hybrid, managers = make_hybrid()
        assert hybrid.try_admit(0, 400.0)
        assert managers[0].occupancy(0) == 400.0
        assert managers[1].total_occupancy == 0.0

    def test_departure_goes_to_class_manager(self):
        hybrid, managers = make_hybrid()
        hybrid.try_admit(2, 300.0)
        hybrid.on_depart(2, 300.0)
        assert managers[1].total_occupancy == 0.0

    def test_occupancy_lookup(self):
        hybrid, _ = make_hybrid()
        hybrid.try_admit(1, 250.0)
        assert hybrid.occupancy(1) == 250.0

    def test_unknown_flow_raises(self):
        hybrid, _ = make_hybrid()
        with pytest.raises(ConfigurationError):
            hybrid.try_admit(42, 100.0)


class TestIsolationBetweenClasses:
    def test_full_class_does_not_block_other_class(self):
        hybrid, _ = make_hybrid()
        hybrid.try_admit(0, 400.0)
        hybrid.try_admit(1, 400.0)
        # Class 0 near capacity; class 1 unaffected.
        assert hybrid.try_admit(2, 500.0)

    def test_class_capacity_binds_locally(self):
        hybrid, _ = make_hybrid()
        assert hybrid.try_admit(2, 500.0)
        assert not hybrid.try_admit(2, 1.0)
        # Plenty of space in class 0 cannot help flow 2.
        assert hybrid.free_space == 1000.0


class TestAggregates:
    def test_capacity_is_sum_of_partitions(self):
        hybrid, _ = make_hybrid()
        assert hybrid.capacity == 1500.0

    def test_total_occupancy_sums_classes(self):
        hybrid, _ = make_hybrid()
        hybrid.try_admit(0, 100.0)
        hybrid.try_admit(2, 200.0)
        assert hybrid.total_occupancy == 300.0
        assert hybrid.free_space == 1200.0


class TestValidation:
    def test_needs_at_least_one_manager(self):
        with pytest.raises(ConfigurationError):
            HybridBufferManager({}, [])

    def test_class_index_out_of_range(self):
        with pytest.raises(ConfigurationError):
            HybridBufferManager({0: 3}, [TailDropManager(100.0)])


class TestReprovisionRetire:
    def test_reprovision_delegates_to_the_class_manager(self):
        hybrid, managers = make_hybrid()
        hybrid.reprovision(2, 450.0)
        assert managers[1].threshold(2) == 450.0
        assert managers[0].threshold(2) != 450.0
        assert hybrid.threshold(2) == 450.0

    def test_retire_delegates_and_keeps_class_mapping(self):
        hybrid, managers = make_hybrid()
        hybrid.try_admit(0, 300.0)
        hybrid.retire(0)
        assert managers[0].threshold(0) == 0.0
        # The class mapping survives so in-flight packets still route to
        # the right sub-manager while they drain.
        hybrid.on_depart(0, 300.0)
        assert hybrid.occupancy(0) == 0.0

    def test_unknown_flow_rejected(self):
        hybrid, _ = make_hybrid()
        with pytest.raises(ConfigurationError):
            hybrid.reprovision(9, 100.0)
