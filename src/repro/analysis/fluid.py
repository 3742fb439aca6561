"""Fluid-model dynamics of a conformant flow versus a greedy flow.

Example 1 of the paper (Section 2.1): flow 1 is a constant-rate fluid at
``rho_1``; flow 2 is greedy and always keeps its buffer share ``B_2 = B -
B_1`` full.  Watching the system at the instants ``t_i`` where flow 2's
buffered backlog clears gives the recursion

    l_{i+1} = (rho_1 / R) * l_i + B_2 / R        (interval lengths)
    R_i^2   = B_2 / l_i,   R_i^1 = R - R_i^2     (per-interval rates)

with limits ``l_i -> B_2 / (R - rho_1)``, ``R_i^1 -> rho_1`` and
``R_i^2 -> R - rho_1``: the conformant flow asymptotically receives
exactly its guaranteed rate without ever losing a bit.

This module evaluates the recursion, its closed-form limits, and the
flow-1 occupancy trajectory ``Q_1(t_i) = rho_1 * l_i`` which stays below
the threshold ``B rho_1 / R`` (the sufficiency direction of Prop. 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["two_flow_fluid"]


@dataclass(frozen=True)
class FluidInterval:
    """One interval ``(t_{i-1}, t_i]`` of the Example-1 dynamics."""

    index: int
    start: float
    end: float
    length: float
    rate_flow1: float
    rate_flow2: float
    occupancy_flow1_end: float


@dataclass(frozen=True)
class FluidTrajectory:
    """The full trajectory plus the closed-form limits."""

    intervals: list[FluidInterval]
    limit_length: float
    limit_rate_flow1: float
    limit_rate_flow2: float
    threshold_flow1: float


def fluid_limits(rho1: float, buffer_size: float, link_rate: float) -> tuple[float, float, float]:
    """Closed-form limits ``(l_inf, R1_inf, R2_inf)`` of Example 1."""
    _validate(rho1, buffer_size, link_rate)
    b2 = buffer_size * (1.0 - rho1 / link_rate)
    return (b2 / (link_rate - rho1), rho1, link_rate - rho1)


def _validate(rho1: float, buffer_size: float, link_rate: float) -> None:
    if link_rate <= 0:
        raise ConfigurationError(f"link rate must be positive, got {link_rate}")
    if not 0 < rho1 < link_rate:
        raise ConfigurationError(f"need 0 < rho1 < R, got rho1={rho1}, R={link_rate}")
    if buffer_size <= 0:
        raise ConfigurationError(f"buffer size must be positive, got {buffer_size}")


def two_flow_fluid(
    rho1: float, buffer_size: float, link_rate: float, n_intervals: int = 50
) -> FluidTrajectory:
    """Evaluate Example 1 for ``n_intervals`` clearing intervals.

    Args:
        rho1: guaranteed (and offered) rate of the conformant flow,
            bytes/second; must satisfy ``0 < rho1 < link_rate``.
        buffer_size: total buffer ``B`` in bytes; flow 1's share is
            ``B1 = B rho1 / R`` and the greedy flow holds ``B2 = B - B1``.
        link_rate: ``R`` in bytes/second.
        n_intervals: number of intervals to compute.

    Returns:
        A :class:`FluidTrajectory`; interval 1 starts at ``t_0 = 0`` where
        the greedy flow's share is full and flow 1's buffer is empty.
    """
    _validate(rho1, buffer_size, link_rate)
    if n_intervals < 1:
        raise ConfigurationError(f"n_intervals must be >= 1, got {n_intervals}")
    b1 = buffer_size * rho1 / link_rate
    b2 = buffer_size - b1
    intervals: list[FluidInterval] = []
    start = 0.0
    length = b2 / link_rate  # l_1: flow 2 drains its full share at rate R
    for index in range(1, n_intervals + 1):
        end = start + length
        rate2 = b2 / length
        rate1 = link_rate - rate2
        occupancy1 = rho1 * length
        intervals.append(
            FluidInterval(
                index=index,
                start=start,
                end=end,
                length=length,
                rate_flow1=rate1,
                rate_flow2=rate2,
                occupancy_flow1_end=occupancy1,
            )
        )
        start = end
        length = (rho1 / link_rate) * length + b2 / link_rate
    limit_length, limit_rate1, limit_rate2 = fluid_limits(rho1, buffer_size, link_rate)
    return FluidTrajectory(
        intervals=intervals,
        limit_length=limit_length,
        limit_rate_flow1=limit_rate1,
        limit_rate_flow2=limit_rate2,
        threshold_flow1=b1,
    )
