"""Logarithmic delay histogram."""

import random
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.metrics.histogram import LogHistogram


class TestRecording:
    def test_count_mean_max(self):
        hist = LogHistogram()
        for value in (0.001, 0.002, 0.003):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(0.002)
        assert hist.max_value == 0.003

    def test_empty_histogram(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0

    def test_negative_value_rejected(self):
        with pytest.raises(ConfigurationError):
            LogHistogram().record(-1.0)

    def test_underflow_and_overflow_counted(self):
        hist = LogHistogram(lo=1e-3, hi=1.0)
        hist.record(1e-6)   # underflow
        hist.record(100.0)  # overflow
        assert hist.count == 2


class TestPercentiles:
    def test_single_value(self):
        hist = LogHistogram(lo=1e-4, hi=1.0)
        hist.record(0.01)
        estimate = hist.percentile(50)
        # Geometric-midpoint estimate within one bin width (26%).
        assert estimate == pytest.approx(0.01, rel=0.3)

    def test_median_of_uniform_sample(self):
        rng = random.Random(1)
        values = [rng.uniform(0.001, 0.1) for _ in range(5000)]
        hist = LogHistogram(lo=1e-4, hi=1.0, bins_per_decade=20)
        for value in values:
            hist.record(value)
        assert hist.percentile(50) == pytest.approx(statistics.median(values), rel=0.15)

    def test_p99_of_exponential_sample(self):
        rng = random.Random(2)
        values = [rng.expovariate(100.0) for _ in range(20_000)]
        hist = LogHistogram(lo=1e-5, hi=10.0, bins_per_decade=20)
        for value in values:
            hist.record(value)
        assert hist.percentile(99) == pytest.approx(
            statistics.quantiles(values, n=100, method="inclusive")[98], rel=0.2
        )

    def test_percentiles_monotone(self):
        rng = random.Random(3)
        hist = LogHistogram(lo=1e-5, hi=10.0)
        for _ in range(2000):
            hist.record(rng.lognormvariate(-4, 1))
        estimates = [hist.percentile(q) for q in (10, 50, 90, 99, 100)]
        assert estimates == sorted(estimates)

    def test_p100_is_max(self):
        hist = LogHistogram(lo=1e-4, hi=1.0)
        for value in (0.001, 0.05, 0.3):
            hist.record(value)
        assert hist.percentile(100) == pytest.approx(0.3, rel=0.3)

    def test_q_out_of_range(self):
        with pytest.raises(ConfigurationError):
            LogHistogram().percentile(101)

    def test_p0_is_low_edge_of_first_occupied_bin(self):
        hist = LogHistogram(lo=1e-3, hi=1.0, bins_per_decade=10)
        hist.record(0.05)
        first_occupied = next(i for i, n in enumerate(hist._counts) if n)
        hist.record(0.5)
        low, high = hist.bin_bounds(first_occupied)
        assert low <= 0.05 < high
        assert hist.percentile(0) == pytest.approx(low)

    def test_p0_underflow_bin_returns_zero(self):
        hist = LogHistogram(lo=1e-3, hi=1.0)
        hist.record(1e-6)  # lands in the underflow bin, low edge 0.0
        assert hist.percentile(0) == 0.0

    def test_p100_is_exact_max(self):
        hist = LogHistogram(lo=1e-4, hi=1.0)
        for value in (0.001, 0.05, 0.3):
            hist.record(value)
        # Exactly the recorded max, not a bin-midpoint estimate.
        assert hist.percentile(100) == 0.3

    def test_p0_p100_bracket_all_estimates(self):
        rng = random.Random(4)
        hist = LogHistogram(lo=1e-5, hi=10.0)
        values = [rng.lognormvariate(-4, 1) for _ in range(1000)]
        for value in values:
            hist.record(value)
        p0, p100 = hist.percentile(0), hist.percentile(100)
        assert p0 <= min(values)
        assert p100 == pytest.approx(max(values))
        for q in (1, 25, 50, 75, 99):
            assert p0 <= hist.percentile(q) <= p100


class TestConfiguration:
    def test_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            LogHistogram(lo=1.0, hi=0.5)
        with pytest.raises(ConfigurationError):
            LogHistogram(lo=0.0, hi=1.0)

    def test_bad_resolution(self):
        with pytest.raises(ConfigurationError):
            LogHistogram(bins_per_decade=0)

    def test_bin_bounds_cover_range(self):
        hist = LogHistogram(lo=1e-3, hi=1.0, bins_per_decade=3)
        low, high = hist.bin_bounds(1)
        assert low == pytest.approx(1e-3)
        _, top = hist.bin_bounds(hist.n_bins)
        assert top >= 1.0 - 1e-9
