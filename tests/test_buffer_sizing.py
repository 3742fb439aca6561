"""Closed-form buffer requirements (Section 2.3)."""

import pytest

from repro.analysis.buffer_sizing import (
    buffer_vs_utilization,
    fifo_min_buffer,
    wfq_min_buffer,
)
from repro.errors import ConfigurationError
from repro.units import kbytes, mbps


class TestWFQMinBuffer:
    def test_sum_of_bursts(self):
        assert wfq_min_buffer([100.0, 200.0, 300.0]) == 600.0

    def test_empty_flow_set(self):
        assert wfq_min_buffer([]) == 0.0

    def test_negative_burst_rejected(self):
        with pytest.raises(ConfigurationError):
            wfq_min_buffer([-1.0])


class TestFIFOMinBuffer:
    def test_equation9(self):
        # B = R * sum(sigma) / (R - sum(rho))
        sigmas = [1000.0, 2000.0]
        rhos = [300.0, 200.0]
        assert fifo_min_buffer(sigmas, rhos, 1000.0) == pytest.approx(
            1000.0 * 3000.0 / 500.0
        )

    def test_reduces_to_wfq_at_zero_utilisation(self):
        sigmas = [1000.0]
        assert fifo_min_buffer(sigmas, [0.0], 1000.0) == wfq_min_buffer(sigmas)

    def test_unbounded_at_full_reservation(self):
        with pytest.raises(ConfigurationError):
            fifo_min_buffer([1000.0], [1000.0], 1000.0)

    def test_paper_workload(self):
        # Table 1: sum(sigma) = 600 KB, sum(rho) = 32.8 Mb/s, R = 48 Mb/s.
        sigmas = [kbytes(50)] * 3 + [kbytes(100)] * 3 + [kbytes(50)] * 3
        rhos = [mbps(2)] * 3 + [mbps(8)] * 3 + [mbps(0.4)] * 2 + [mbps(2)]
        required = fifo_min_buffer(sigmas, rhos, mbps(48))
        # u ~ 0.683 -> inflation ~ 3.16: about 1.9 MB.
        assert required == pytest.approx(kbytes(600) / (1 - 32.8 / 48), rel=1e-9)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            fifo_min_buffer([1.0], [1.0, 2.0], 10.0)


class TestUtilizationForms:
    def test_equation10_matches_equation9(self):
        sigmas = [500.0, 700.0]
        rhos = [100.0, 400.0]
        link_rate = 1000.0
        u = sum(rhos) / link_rate
        assert buffer_vs_utilization(u, sum(sigmas)) == pytest.approx(
            fifo_min_buffer(sigmas, rhos, link_rate)
        )

    def test_blowup_towards_full_utilisation(self):
        near_full = buffer_vs_utilization(0.99, 1000.0)
        moderate = buffer_vs_utilization(0.5, 1000.0)
        assert near_full > 49 * moderate

    def test_utilisation_bounds(self):
        with pytest.raises(ConfigurationError):
            buffer_vs_utilization(1.0, 1000.0)
        with pytest.raises(ConfigurationError):
            buffer_vs_utilization(-0.1, 1000.0)

    def test_inflation_is_fifo_over_wfq(self):
        sigmas = [100.0, 300.0]
        rhos = [250.0, 250.0]
        ratio = fifo_min_buffer(sigmas, rhos, 1000.0) / wfq_min_buffer(sigmas)
        u = sum(rhos) / 1000.0
        assert ratio == pytest.approx(1.0 / (1.0 - u))
