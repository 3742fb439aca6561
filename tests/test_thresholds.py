"""Threshold formulas (Propositions 1-2, footnote 5, Section 4.2)."""

import pytest

from repro.core.thresholds import (
    compute_thresholds,
    flow_threshold,
    hybrid_flow_threshold,
    scale_to_partition,
)
from repro.errors import ConfigurationError


class TestFlowThreshold:
    def test_proposition2_formula(self):
        # T = sigma + rho * B / R
        assert flow_threshold(50_000.0, 250_000.0, 1_000_000.0, 6_000_000.0) == pytest.approx(
            50_000.0 + 250_000.0 * 1_000_000.0 / 6_000_000.0
        )

    def test_zero_sigma_recovers_proposition1(self):
        # Peak-rate flows: T = rho * B / R.
        assert flow_threshold(0.0, 3_000_000.0, 1_000_000.0, 6_000_000.0) == pytest.approx(
            500_000.0
        )

    def test_threshold_scales_linearly_with_buffer(self):
        t1 = flow_threshold(0.0, 1000.0, 10_000.0, 10_000.0)
        t2 = flow_threshold(0.0, 1000.0, 20_000.0, 10_000.0)
        assert t2 == pytest.approx(2 * t1)

    def test_rate_share_of_buffer(self):
        # A flow reserving half the link gets half the buffer (plus sigma).
        threshold = flow_threshold(0.0, 500.0, 8_000.0, 1000.0)
        assert threshold == pytest.approx(4_000.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            flow_threshold(-1.0, 100.0, 1000.0, 1000.0)
        with pytest.raises(ConfigurationError):
            flow_threshold(1.0, -100.0, 1000.0, 1000.0)
        with pytest.raises(ConfigurationError):
            flow_threshold(1.0, 100.0, 0.0, 1000.0)


class TestScaleToPartition:
    def test_underallocated_thresholds_scaled_up(self):
        thresholds = {0: 100.0, 1: 300.0}
        scaled = scale_to_partition(thresholds, 800.0)
        assert scaled[0] == pytest.approx(200.0)
        assert scaled[1] == pytest.approx(600.0)
        assert sum(scaled.values()) == pytest.approx(800.0)

    def test_oversubscribed_thresholds_unchanged(self):
        thresholds = {0: 600.0, 1: 600.0}
        assert scale_to_partition(thresholds, 800.0) == thresholds

    def test_exact_partition_unchanged(self):
        thresholds = {0: 400.0, 1: 400.0}
        assert scale_to_partition(thresholds, 800.0) == thresholds

    def test_scaling_preserves_ratios(self):
        thresholds = {0: 100.0, 1: 200.0, 2: 300.0}
        scaled = scale_to_partition(thresholds, 6000.0)
        assert scaled[1] / scaled[0] == pytest.approx(2.0)
        assert scaled[2] / scaled[0] == pytest.approx(3.0)


class TestComputeThresholds:
    PROFILES = {0: (50_000.0, 250_000.0), 1: (100_000.0, 1_000_000.0)}

    def test_per_flow_formula_applied(self):
        thresholds = {
            flow_id: flow_threshold(sigma, rho, 100_000.0, 6_000_000.0)
            for flow_id, (sigma, rho) in self.PROFILES.items()
        }
        assert thresholds[0] == pytest.approx(50_000.0 + 250_000.0 / 60.0)
        assert thresholds[1] == pytest.approx(100_000.0 + 1_000_000.0 / 60.0)

    def test_full_partition_scales_up_when_buffer_large(self):
        thresholds = compute_thresholds(self.PROFILES, 10_000_000.0, 6_000_000.0)
        assert sum(thresholds.values()) == pytest.approx(10_000_000.0)

    def test_partition_keeps_thresholds_when_oversubscribed(self):
        small = compute_thresholds(self.PROFILES, 100_000.0, 6_000_000.0)
        unscaled = {
            flow_id: flow_threshold(sigma, rho, 100_000.0, 6_000_000.0)
            for flow_id, (sigma, rho) in self.PROFILES.items()
        }
        assert small == unscaled  # sum(T) > B already


class TestHybridFlowThreshold:
    def test_section42_formula(self):
        # sigma_j + (rho_j / rho_hat_i) * B_i
        assert hybrid_flow_threshold(50_000.0, 250_000.0, 1_500_000.0, 600_000.0) == (
            pytest.approx(50_000.0 + (250_000.0 / 1_500_000.0) * 600_000.0)
        )

    def test_flow_owning_whole_queue_gets_whole_buffer(self):
        assert hybrid_flow_threshold(0.0, 100.0, 100.0, 5000.0) == pytest.approx(5000.0)

    def test_invalid_queue_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            hybrid_flow_threshold(0.0, 100.0, 0.0, 5000.0)
        with pytest.raises(ConfigurationError):
            hybrid_flow_threshold(0.0, 100.0, 100.0, 0.0)
