"""Replication statistics: means and 95% confidence intervals.

The paper "averaged the results over 5 simulation runs and found the 95%
confidence intervals for throughput measurements to be less than 2%"; this
module provides the same machinery (Student-t intervals over independent
replications).

The Student-t quantile is computed here with the standard library's
``decimal`` and is correctly rounded (:func:`_t_quantile`), so an
interval needs nothing beyond ``import repro``: numpy and the standard
library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = ["MeanCI", "mean_ci"]

#: pi to 60 digits, for the odd-df series.
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


@dataclass(frozen=True)
class MeanCI:
    """A sample mean with a symmetric confidence half-width."""

    mean: float
    halfwidth: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.halfwidth:.2g} (n={self.n})"


def mean_ci(samples: Sequence[float]) -> MeanCI:
    """Student-t 95% confidence interval for the mean of i.i.d. samples.

    A single sample yields a zero half-width (no variance information),
    which keeps sweep code simple when running in fast mode.
    """
    if not samples:
        raise ConfigurationError("mean_ci needs at least one sample")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return MeanCI(mean=mean, halfwidth=0.0, n=1)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    t_crit = _t_quantile(0.975, n - 1)
    halfwidth = t_crit * math.sqrt(variance / n)
    return MeanCI(mean=mean, halfwidth=halfwidth, n=n)


@functools.lru_cache(maxsize=None)
def _t_quantile(q: float, df: int) -> float:
    """The ``q``-quantile of Student's t with ``df`` degrees of freedom,
    correctly rounded, for 0.5 <= q <= 1 and integer df >= 1.

    Newton's method on theta = atan(t / sqrt(df)) in 40-digit decimal:
    P(|T| <= t) = 2q - 1 is a finite series in theta (:func:`_abs_t_cdf`)
    and concave on [0, pi/2], so from theta = 0 every step stays below
    the root and the steps shrink to it (at most 20 for q <= 0.9999995).
    Cached: an aggregation asks the same pair for every group.
    """
    if q == 1.0:
        return math.inf
    with localcontext() as context:
        context.prec = 40
        target = 2 * Decimal(q) - 1
        theta = Decimal(0)
        while True:
            value, slope = _abs_t_cdf(theta, df)
            step = (target - value) / slope
            theta += step
            if step <= theta.scaleb(-25):
                break
        sin, cos = _sin_cos(theta)
        return float(Decimal(df).sqrt() * sin / cos)


def _abs_t_cdf(theta: Decimal, df: int) -> tuple[Decimal, Decimal]:
    """P(|T| <= sqrt(df) tan theta) and its derivative in theta, in the
    current decimal context (Abramowitz & Stegun 26.7.3 for odd df,
    26.7.4 for even): a sum of terms in cos**p theta, p = df - 2,
    df - 4, ... >= 0, whose last term times (df - 1) cos theta is the
    derivative (both scaled by 2/pi for odd df)."""
    if df == 1:
        return 2 * theta / _PI, 2 / _PI
    sin, cos = _sin_cos(theta)
    cos2 = cos * cos
    odd = df % 2
    term = total = cos if odd else Decimal(1)
    for power in range(odd + 2, df - 1, 2):
        term = term * cos2 * (power - 1) / power
        total += term
    slope = (df - 1) * term * cos
    if odd:
        return 2 * (theta + sin * total) / _PI, 2 * slope / _PI
    return sin * total, slope


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """sin x and cos x by their Taylor series, in the current decimal context."""
    x2 = x * x
    sin = sin_term = x
    cos = cos_term = Decimal(1)
    n = 1
    while True:
        cos_term = -cos_term * x2 / (n * (n + 1))
        sin_term = -sin_term * x2 / ((n + 1) * (n + 2))
        n += 2
        if sin + sin_term == sin and cos + cos_term == cos:
            return sin, cos
        sin += sin_term
        cos += cos_term
