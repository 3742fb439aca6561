"""Burst-potential process and conformance checks (Section 2.2)."""

import pytest

from repro.analysis.burst import is_conformant_path, proposition2_bound
from repro.errors import ConfigurationError, SimulationError
from repro.traffic.shaper import TokenBucketMeter


class TestBurstPotential:
    """``sigma(t)`` of eq. 3, read off a live meter's token level."""

    def test_fresh_flow_has_full_bucket(self):
        # No arrivals yet: sigma(t) = sigma.
        assert TokenBucketMeter(1000.0, 100.0).burst_potential(0.0) == 1000.0

    def test_instantaneous_burst_drains_potential(self):
        meter = TokenBucketMeter(1000.0, 100.0)
        meter.observe(0.0, 800.0)
        assert meter.burst_potential(0.0) == pytest.approx(200.0)

    def test_potential_recovers_at_token_rate(self):
        meter = TokenBucketMeter(1000.0, 100.0)
        meter.observe(0.0, 800.0)
        assert meter.burst_potential(2.0) == pytest.approx(400.0)

    def test_potential_capped_at_sigma(self):
        meter = TokenBucketMeter(1000.0, 100.0)
        meter.observe(0.0, 800.0)
        # Long after the burst, potential saturates at sigma.
        assert meter.burst_potential(100.0) == pytest.approx(1000.0)

    def test_steady_rate_reaches_fixed_point(self):
        # 100-byte arrivals every second at rho = 100: each debit is
        # exactly refilled before the next, so right after the arrival at
        # t the potential sits at sigma - 100.
        meter = TokenBucketMeter(500.0, 100.0)
        for t in range(10):
            meter.observe(float(t), 100.0)
        assert meter.burst_potential(9.0) == pytest.approx(400.0)
        # Half a second later, 50 bytes have been recredited.
        assert meter.burst_potential(9.5) == pytest.approx(450.0)

    def test_evaluation_before_path_rejected(self):
        meter = TokenBucketMeter(100.0, 10.0)
        meter.observe(1.0, 10.0)
        with pytest.raises(SimulationError):
            meter.burst_potential(0.5)

    def test_unsorted_path_rejected(self):
        with pytest.raises(ConfigurationError):
            is_conformant_path([(1.0, 0.0), (0.5, 10.0)], 100.0, 10.0)

    def test_decreasing_cumulative_rejected(self):
        with pytest.raises(ConfigurationError):
            is_conformant_path([(0.0, 10.0), (1.0, 5.0)], 100.0, 10.0)


class TestConformance:
    def test_rate_limited_path_conformant(self):
        # Discrete 100-byte jumps once per second at rho = 100: conformant
        # exactly when sigma covers one jump.
        path = [(float(t), 100.0 * t) for t in range(20)]
        assert is_conformant_path(path, sigma=100.0, rho=100.0)
        assert not is_conformant_path(path, sigma=99.0, rho=100.0)

    def test_burst_within_sigma_conformant(self):
        path = [(0.0, 500.0), (1.0, 600.0)]
        assert is_conformant_path(path, sigma=500.0, rho=100.0)

    def test_excessive_burst_not_conformant(self):
        path = [(0.0, 501.0)]
        assert not is_conformant_path(path, sigma=500.0, rho=100.0)

    def test_sustained_overrate_not_conformant(self):
        path = [(float(t), 200.0 * t) for t in range(10)]
        assert not is_conformant_path(path, sigma=100.0, rho=100.0)

    def test_burst_potential_nonnegative_iff_conformant(self):
        # sigma(t) stays non-negative after every jump exactly when the
        # path meets eq. 2: the meter's potential covers each jump.
        good = [(0.0, 300.0), (2.0, 500.0)]
        bad = [(0.0, 300.0), (1.0, 700.0)]
        for path, conformant in ((good, True), (bad, False)):
            assert is_conformant_path(path, 500.0, 100.0) is conformant
            meter = TokenBucketMeter(500.0, 100.0)
            previous, covered = 0.0, True
            for time, cumulative in path:
                covered = covered and meter.burst_potential(time) >= cumulative - previous
                meter.observe(time, cumulative - previous)
                previous = cumulative
            assert covered is conformant


class TestProposition2Bound:
    def test_bound_below_reserved_threshold(self):
        # footnote 3: for B >= R sigma / (R - rho) the proof's occupancy
        # bound sits below the reserved allocation sigma + B rho / R.
        sigma, rho, link_rate = 500.0, 250.0, 1000.0
        min_buffer = link_rate * sigma / (link_rate - rho)
        for buffer_size in (min_buffer, 2 * min_buffer, 10 * min_buffer):
            bound = proposition2_bound(sigma, rho, buffer_size, link_rate)
            threshold = sigma + buffer_size * rho / link_rate
            assert bound <= threshold + 1e-9

    def test_minimum_buffer_leaves_no_competitor_share(self):
        # At B = R sigma / (R - rho) the reserved threshold consumes the
        # whole buffer (B2 = 0) and the occupancy bound collapses to sigma.
        sigma, rho, link_rate = 500.0, 250.0, 1000.0
        min_buffer = link_rate * sigma / (link_rate - rho)
        threshold = sigma + min_buffer * rho / link_rate
        assert threshold == pytest.approx(min_buffer)
        assert proposition2_bound(sigma, rho, min_buffer, link_rate) == (
            pytest.approx(sigma)
        )

    def test_too_small_buffer_rejected(self):
        with pytest.raises(ConfigurationError):
            proposition2_bound(500.0, 900.0, 100.0, 1000.0)

    def test_rho_must_be_less_than_link_rate(self):
        with pytest.raises(ConfigurationError):
            proposition2_bound(500.0, 1000.0, 1000.0, 1000.0)
