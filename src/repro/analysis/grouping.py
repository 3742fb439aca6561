"""Flow-to-queue grouping strategies for the hybrid system (Section 4.1).

The paper observes that, once the number of queues is fixed, "grouping
flows such that one queue has significantly lower rate and burst
requirements compared to another is beneficial" (eq. 17: savings grow
with the spread of ``sigma_hat_i rho_hat_j`` across queues), but leaves
finding good groupings open.  This module provides:

* :func:`group_requirements` — fold a grouping of flow profiles into the
  per-queue ``(sigma_hat, rho_hat)`` aggregates;
* :func:`grouping_buffer` — total buffer of a grouping under the optimal
  rate split (eq. 19);
* :func:`best_grouping_exhaustive` — exact minimiser for small flow
  counts (set-partition enumeration into at most ``k`` groups);
* :func:`greedy_grouping` — a practical heuristic: sort flows by the
  burstiness ratio ``sigma/rho`` and cut into ``k`` contiguous segments
  at the largest ratio gaps, mirroring the paper's suggestion to separate
  low-burst telephony-like flows from high-burst video-like flows.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.analysis.hybrid_opt import QueueRequirement, hybrid_total_buffer
from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "grouping_buffer",
    "best_grouping_exhaustive",
    "greedy_grouping",
]

Profile = tuple[float, float]  # (sigma, rho)


def group_requirements(
    profiles: Sequence[Profile], groups: Sequence[Sequence[int]]
) -> list[QueueRequirement]:
    """Aggregate ``(sigma_hat_i, rho_hat_i)`` for each group of flow indices."""
    seen: set[int] = set()
    requirements = []
    for group in groups:
        if not group:
            raise ConfigurationError("groups must be non-empty")
        sigma_hat = 0.0
        rho_hat = 0.0
        for index in group:
            if index in seen:
                raise ConfigurationError(f"flow index {index} used twice")
            if not 0 <= index < len(profiles):
                raise ConfigurationError(f"flow index {index} out of range")
            seen.add(index)
            sigma, rho = profiles[index]
            sigma_hat += sigma
            rho_hat += rho
        requirements.append(QueueRequirement(sigma_hat=sigma_hat, rho_hat=rho_hat))
    return requirements


def grouping_buffer(
    profiles: Sequence[Profile], groups: Sequence[Sequence[int]], link_rate: float
) -> float:
    """Total buffer needed by a grouping under the optimal rate split.

    Single-flow queues are still sized by eq. (18); the paper notes (
    footnote 6) that a lone flow only needs its burst size, so this is an
    upper bound for such queues — consistent across comparisons.
    """
    return hybrid_total_buffer(group_requirements(profiles, groups), link_rate)


def _partitions(indices: list[int], k: int):
    """Yield all partitions of ``indices`` into at most ``k`` non-empty groups."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for partition in _partitions(rest, k):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1 :]
        if len(partition) < k:
            yield partition + [[first]]


def best_grouping_exhaustive(
    profiles: Sequence[Profile], k: int, link_rate: float
) -> tuple[list[list[int]], float]:
    """Exact best grouping into at most ``k`` queues (small N only).

    Returns ``(groups, total_buffer)``.  Complexity is the number of set
    partitions, so this is intended for N <= ~10.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if not profiles:
        raise ConfigurationError("need at least one flow profile")
    if len(profiles) > 12:
        raise ConfigurationError(
            f"exhaustive search limited to 12 flows, got {len(profiles)}"
        )
    best_groups: list[list[int]] | None = None
    best_buffer = float("inf")
    for partition in _partitions(list(range(len(profiles))), k):
        buffer_needed = grouping_buffer(profiles, partition, link_rate)
        if buffer_needed < best_buffer:
            best_buffer = buffer_needed
            best_groups = [sorted(group) for group in partition]
    if best_groups is None:
        raise SimulationError("exhaustive grouping search produced no partition")
    return best_groups, best_buffer


def greedy_grouping(
    profiles: Sequence[Profile], k: int, link_rate: float
) -> tuple[list[list[int]], float]:
    """Heuristic grouping: sort by ``sigma/rho`` and try all contiguous cuts.

    Sorting by the burstiness ratio and cutting into contiguous segments
    preserves the paper's intuition (separate "low rate and burst" flows
    from "high rate and burst" ones); for ``k`` small the number of cut
    positions is tiny, so we enumerate all of them and keep the best.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    n = len(profiles)
    if n == 0:
        raise ConfigurationError("need at least one flow profile")
    order = sorted(range(n), key=lambda i: profiles[i][0] / profiles[i][1])
    k = min(k, n)
    best_groups: list[list[int]] | None = None
    best_buffer = float("inf")
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = [0, *cuts, n]
        groups = [order[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)]
        buffer_needed = grouping_buffer(profiles, groups, link_rate)
        if buffer_needed < best_buffer:
            best_buffer = buffer_needed
            best_groups = [sorted(group) for group in groups]
    if best_groups is None:
        raise SimulationError("greedy grouping search produced no partition")
    return best_groups, best_buffer
