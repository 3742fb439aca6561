"""Dynamic Threshold (Choudhury-Hahne) baseline."""

import pytest

from repro.core.dynamic_threshold import DynamicThresholdManager
from repro.errors import ConfigurationError


class TestAdmission:
    def test_empty_buffer_admits_up_to_half_with_alpha_one(self):
        # threshold = alpha * free = 1000 initially; packet <= 1000 ok.
        manager = DynamicThresholdManager(1000.0, alpha=1.0)
        assert manager.try_admit(0, 500.0)

    def test_threshold_shrinks_as_buffer_fills(self):
        manager = DynamicThresholdManager(1000.0, alpha=1.0)
        manager.try_admit(0, 400.0)
        assert manager.current_threshold() == pytest.approx(600.0)
        manager.try_admit(1, 300.0)
        assert manager.current_threshold() == pytest.approx(300.0)

    def test_single_greedy_flow_converges_to_half_buffer(self):
        # With alpha=1 a lone greedy flow stabilises near B/2: each accept
        # requires occupancy + L <= B - occupancy.
        manager = DynamicThresholdManager(1000.0, alpha=1.0)
        admitted = 0.0
        while manager.try_admit(0, 50.0):
            admitted += 50.0
        assert admitted <= 500.0
        assert admitted >= 450.0

    def test_two_greedy_flows_split_equally(self):
        manager = DynamicThresholdManager(900.0, alpha=1.0)
        blocked = set()
        while len(blocked) < 2:
            for flow in (0, 1):
                if not manager.try_admit(flow, 10.0):
                    blocked.add(flow)
        assert manager.occupancy(0) == pytest.approx(manager.occupancy(1), abs=10.0)

    def test_capacity_still_binds(self):
        manager = DynamicThresholdManager(1000.0, alpha=4.0)
        manager.try_admit(0, 900.0)
        assert not manager.try_admit(1, 200.0)

    def test_departures_reopen_threshold(self):
        manager = DynamicThresholdManager(1000.0, alpha=1.0)
        while manager.try_admit(0, 100.0):
            pass
        occupancy = manager.occupancy(0)
        manager.on_depart(0, 100.0)
        assert manager.current_threshold() > manager.capacity - occupancy


class TestAlpha:
    def test_small_alpha_is_conservative(self):
        manager = DynamicThresholdManager(1000.0, alpha=0.25)
        admitted = 0.0
        while manager.try_admit(0, 10.0):
            admitted += 10.0
        # Fixed point: q = alpha (B - q) -> q = B/5.
        assert admitted <= 200.0

    @pytest.mark.parametrize("field", ["capacity", "alpha"])
    def test_nan_input_rejected(self, field):
        # A NaN alpha would make every admission test false: all drops.
        inputs = {"capacity": 1000.0, "alpha": 1.0, field: float("nan")}
        with pytest.raises(ConfigurationError):
            DynamicThresholdManager(**inputs)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            DynamicThresholdManager(1000.0, alpha=0.0)


class TestReprovisionContract:
    def test_reprovision_is_a_validating_no_op(self):
        # The dynamic rule has no per-flow state to resize; the call
        # validates and returns so churn can treat managers uniformly.
        manager = DynamicThresholdManager(1000.0, alpha=1.0)
        manager.reprovision(3, 250.0)
        assert type(manager).has_flow_thresholds is False
        with pytest.raises(ConfigurationError):
            manager.reprovision(3, -1.0)
        with pytest.raises(ConfigurationError):
            manager.reprovision(3, float("nan"))

    def test_retire_reclaims_drained_occupancy_entry(self):
        manager = DynamicThresholdManager(1000.0, alpha=1.0)
        manager.try_admit(3, 100.0)
        manager.retire(3)
        manager.on_depart(3, 100.0)
        assert 3 not in manager._occupancy
