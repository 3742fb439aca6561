"""Delay histograms: percentile estimation with bounded memory.

The collector tracks delay sum and max; for distribution questions
("what delay does the 99th percentile of premium packets see?") a
fixed-bin logarithmic histogram gives percentile estimates with O(bins)
memory regardless of packet count — the same structure a router's
telemetry would use.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = ["LogHistogram"]


class LogHistogram:
    """Logarithmically-binned histogram of positive values.

    Bin ``i`` covers ``[lo * base**i, lo * base**(i+1))``; values below
    ``lo`` land in an underflow bin, values at or above the top in an
    overflow bin.  Percentiles are estimated by the geometric midpoint of
    the containing bin (exact bounds are available via ``bin_bounds``).

    Args:
        lo: lower edge of the first bin (e.g. 1e-6 seconds).
        hi: upper edge of the last regular bin.
        bins_per_decade: resolution; 10 gives ~26% relative bin width.
    """

    __slots__ = (
        "lo",
        "hi",
        "bins_per_decade",
        "base",
        "_log_base",
        "n_bins",
        "_counts",
        "count",
        "total",
        "max_value",
    )

    def __init__(self, lo: float = 1e-6, hi: float = 10.0, bins_per_decade: int = 10):
        if not 0 < lo < hi:
            raise ConfigurationError(f"need 0 < lo < hi, got ({lo}, {hi})")
        if bins_per_decade < 1:
            raise ConfigurationError(
                f"bins_per_decade must be >= 1, got {bins_per_decade}"
            )
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins_per_decade = int(bins_per_decade)
        self.base = 10.0 ** (1.0 / bins_per_decade)
        self._log_base = math.log(self.base)
        self.n_bins = int(math.ceil(math.log(hi / lo, self.base)))
        self._counts = [0] * (self.n_bins + 2)  # +underflow +overflow
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def record(self, value: float) -> None:
        """Add one observation (must be non-negative)."""
        if value < 0:
            raise ConfigurationError(f"values must be non-negative, got {value}")
        if value < self.lo:
            index = 0
        elif value >= self.hi:
            index = self.n_bins + 1
        else:
            # The division math.log(x, base) performs, on a cached log(base).
            index = 1 + int(math.log(value / self.lo) / self._log_base)
        self._counts[index] += 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        """Exact mean of all recorded values."""
        return self.total / self.count if self.count else 0.0

    def bin_bounds(self, index: int) -> tuple[float, float]:
        """(low, high) edges of a bin index as used internally."""
        if index == 0:
            return (0.0, self.lo)
        if index == self.n_bins + 1:
            return (self.hi, math.inf)
        low = self.lo * self.base ** (index - 1)
        return (low, low * self.base)

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (q in [0, 100]).

        Returns the geometric midpoint of the bin containing the
        percentile rank; 0.0 when the histogram is empty.  The extremes
        are exact rather than midpoint estimates: ``q=0`` is the low edge
        of the first occupied bin (the tightest lower bound the binning
        can certify) and ``q=100`` is the recorded ``max_value``.
        """
        if not 0 <= q <= 100:
            raise ConfigurationError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        if q >= 100:
            return self.max_value
        rank = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count > 0:
                low, high = self.bin_bounds(index)
                if q <= 0:
                    return low
                if index == 0:
                    return low / 2.0
                if math.isinf(high):
                    return self.max_value
                return math.sqrt(low * high)
        return self.max_value
