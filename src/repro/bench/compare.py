"""Regression verdicts: fresh measurements vs a stored baseline.

For each case in the baseline the comparison computes an *allowed drop*:

    allowed = max(threshold, noise_mult * max(spread_base, spread_fresh))

where ``threshold`` is the flat relative tolerance (default 5%),
``noise_mult`` scales the measured trial-to-trial spread, and the
spreads come from the repeated trials stored with each measurement.  A
case **regresses** when its fresh events/sec falls below
``baseline * (1 - allowed)``; symmetrically it is flagged **improved**
above ``baseline * (1 + allowed)`` (a nudge to refresh the baseline so
future regressions are judged against the new floor).

Digest discipline: a case whose content digest differs between baseline
and fresh run is ``mismatched`` — the workload changed, so comparing the
numbers would be meaningless.  Mismatches and baseline cases missing
from the fresh run are *stale-baseline* failures (CLI exit 4), distinct
from performance regressions (exit 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.baseline import BenchBaseline
from repro.errors import ConfigurationError

__all__ = ["CaseComparison", "ComparisonReport", "compare_baselines"]

#: Comparison statuses.
OK = "ok"
IMPROVED = "improved"
REGRESSED = "regressed"
MISSING = "missing"  # in baseline, absent from the fresh run
MISMATCHED = "mismatched"  # same name, different workload digest
NEW = "new"  # in the fresh run, absent from the baseline


@dataclass(frozen=True)
class CaseComparison:
    """Verdict for one case."""

    name: str
    status: str
    baseline_eps: float | None
    fresh_eps: float | None
    allowed_drop: float | None

    @property
    def delta(self) -> float | None:
        """Relative events/sec change, fresh vs baseline."""
        if not self.baseline_eps or self.fresh_eps is None:
            return None
        return self.fresh_eps / self.baseline_eps - 1.0


@dataclass(frozen=True)
class ComparisonReport:
    """All case verdicts plus the gate parameters that produced them."""

    comparisons: tuple[CaseComparison, ...]
    threshold: float
    noise_mult: float

    @property
    def regressions(self) -> list[CaseComparison]:
        return [c for c in self.comparisons if c.status == REGRESSED]

    @property
    def stale(self) -> list[CaseComparison]:
        """Cases whose baseline no longer matches the suite definition."""
        return [c for c in self.comparisons if c.status in (MISSING, MISMATCHED)]

    @property
    def passed(self) -> bool:
        return not self.regressions and not self.stale

    def render(self) -> str:
        """Human-readable verdict table."""
        header = (
            f"{'case':<18} {'status':<18} {'baseline ev/s':>14} "
            f"{'fresh ev/s':>14} {'delta':>8} {'allowed':>8}"
        )
        lines = [header, "-" * len(header)]
        for c in self.comparisons:
            base = "-" if c.baseline_eps is None else f"{c.baseline_eps:,.0f}"
            fresh = "-" if c.fresh_eps is None else f"{c.fresh_eps:,.0f}"
            delta = "-" if c.delta is None else f"{c.delta:+.1%}"
            allowed = "-" if c.allowed_drop is None else f"-{c.allowed_drop:.1%}"
            lines.append(
                f"{c.name:<18} {c.status:<18} {base:>14} {fresh:>14} "
                f"{delta:>8} {allowed:>8}"
            )
        lines.append(
            f"gate: threshold={self.threshold:.1%} noise_mult={self.noise_mult:g} "
            f"-> {'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join(lines)


def compare_baselines(
    baseline: BenchBaseline,
    fresh: BenchBaseline,
    threshold: float = 0.05,
    noise_mult: float = 1.0,
) -> ComparisonReport:
    """Judge a fresh suite run against a stored baseline."""
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    if noise_mult < 0:
        raise ConfigurationError(f"noise_mult must be >= 0, got {noise_mult}")
    comparisons: list[CaseComparison] = []
    fresh_by_name = {case.name: case for case in fresh.cases}
    for base_case in baseline.cases:
        fresh_case = fresh_by_name.pop(base_case.name, None)
        if fresh_case is None:
            comparisons.append(
                CaseComparison(
                    name=base_case.name,
                    status=MISSING,
                    baseline_eps=base_case.events_per_sec,
                    fresh_eps=None,
                    allowed_drop=None,
                )
            )
            continue
        if fresh_case.digest != base_case.digest:
            comparisons.append(
                CaseComparison(
                    name=base_case.name,
                    status=MISMATCHED,
                    baseline_eps=base_case.events_per_sec,
                    fresh_eps=fresh_case.events_per_sec,
                    allowed_drop=None,
                )
            )
            continue
        allowed = max(
            threshold,
            noise_mult * max(base_case.rel_spread, fresh_case.rel_spread),
        )
        base_eps = base_case.events_per_sec
        fresh_eps = fresh_case.events_per_sec
        if fresh_eps < base_eps * (1.0 - allowed):
            status = REGRESSED
        elif fresh_eps > base_eps * (1.0 + allowed):
            status = IMPROVED
        else:
            status = OK
        comparisons.append(
            CaseComparison(
                name=base_case.name,
                status=status,
                baseline_eps=base_eps,
                fresh_eps=fresh_eps,
                allowed_drop=allowed,
            )
        )
    # Fresh cases the baseline has never seen: informational, never a
    # failure — new suite entries should not block until recorded.
    for fresh_case in fresh_by_name.values():
        comparisons.append(
            CaseComparison(
                name=fresh_case.name,
                status=NEW,
                baseline_eps=None,
                fresh_eps=fresh_case.events_per_sec,
                allowed_drop=None,
            )
        )
    return ComparisonReport(
        comparisons=tuple(comparisons), threshold=threshold, noise_mult=noise_mult
    )
