"""Replication statistics: means and 95% confidence intervals.

The paper "averaged the results over 5 simulation runs and found the 95%
confidence intervals for throughput measurements to be less than 2%"; this
module provides the same machinery (Student-t intervals over independent
replications).

scipy is imported inside :func:`mean_ci`, the one place that needs it, so
``import repro`` loads numpy and the standard library only; the first
interval loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigurationError

__all__ = ["MeanCI", "mean_ci", "replicate"]


@dataclass(frozen=True)
class MeanCI:
    """A sample mean with a symmetric confidence half-width."""

    mean: float
    halfwidth: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.halfwidth

    @property
    def high(self) -> float:
        return self.mean + self.halfwidth

    @property
    def relative_halfwidth(self) -> float:
        """Half-width as a fraction of the mean (inf for zero mean)."""
        if self.mean == 0:
            return math.inf if self.halfwidth > 0 else 0.0
        return abs(self.halfwidth / self.mean)

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.halfwidth:.2g} (n={self.n})"


def mean_ci(samples: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Student-t confidence interval for the mean of i.i.d. samples.

    A single sample yields a zero half-width (no variance information),
    which keeps sweep code simple when running in fast mode.
    """
    if not samples:
        raise ConfigurationError("mean_ci needs at least one sample")
    if not 0 < confidence < 1:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return MeanCI(mean=mean, halfwidth=0.0, n=1)
    # The dotted form: ``from scipy import stats`` would pay a fromlist
    # walk on every call.
    import scipy.stats

    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    t_crit = float(scipy.stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    halfwidth = t_crit * math.sqrt(variance / n)
    return MeanCI(mean=mean, halfwidth=halfwidth, n=n)


def replicate(run: Callable[[int], float], seeds: Sequence[int], confidence: float = 0.95) -> MeanCI:
    """Run ``run(seed)`` for every seed and summarise the results."""
    if not seeds:
        raise ConfigurationError("replicate needs at least one seed")
    return mean_ci([run(seed) for seed in seeds], confidence=confidence)
