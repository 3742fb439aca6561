"""Degraded guarantees when thresholds are undersized (Section 3 trade-off).

Proposition 1 is invertible: against arbitrary competing traffic, a flow
whose occupancy threshold is ``T`` on a buffer ``B`` drained at ``R`` is
guaranteed the long-run rate

    rho_eff = R * T / B        (peak-rate flows; T <= B)

because the Example-1 dynamics converge to each flow draining in
proportion to its buffer share.  When operators cannot afford the full
``sigma + rho B / R`` allocation, this quantifies exactly how much rate
the flow retains — the "impact on conformant and non-conformant flows of
lowering the buffer size" the paper investigates by simulation.

For leaky-bucket flows the sigma term buys burst tolerance, not rate, so
the effective *rate* floor uses the rate portion ``max(T - sigma, 0)``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["effective_rate", "required_threshold", "degradation_fraction"]


# repro: noqa RPR110 — ROADMAP item 3 (every armed bound shown tight) will call it
def effective_rate(
    threshold: float, buffer_size: float, link_rate: float, sigma: float = 0.0
) -> float:
    """Long-run rate guaranteed by an (possibly undersized) threshold.

    Args:
        threshold: the flow's occupancy threshold ``T`` in bytes.
        buffer_size: total buffer ``B`` in bytes.
        link_rate: drain rate ``R`` in bytes/second.
        sigma: the flow's burst allowance inside ``T`` (the remainder,
            ``T - sigma``, is the rate-bearing portion).

    Returns:
        ``R * max(T - sigma, 0) / B``, clamped to ``R``.
    """
    if buffer_size <= 0 or link_rate <= 0:
        raise ConfigurationError(
            f"buffer and rate must be positive, got ({buffer_size}, {link_rate})"
        )
    if threshold < 0 or sigma < 0:
        raise ConfigurationError(
            f"threshold and sigma must be non-negative, got ({threshold}, {sigma})"
        )
    rate_portion = max(threshold - sigma, 0.0)
    return min(link_rate * rate_portion / buffer_size, link_rate)


# repro: noqa RPR110 — ROADMAP item 3 (every armed bound shown tight) will call it
def required_threshold(
    rate: float, buffer_size: float, link_rate: float, sigma: float = 0.0
) -> float:
    """Inverse: the threshold needed for a given effective rate.

    ``sigma + rate * B / R`` — Proposition 2's allocation, exposed as the
    design-rule counterpart of :func:`effective_rate`.
    """
    if not 0 <= rate <= link_rate:
        raise ConfigurationError(f"rate must be in [0, R], got {rate}")
    if buffer_size <= 0:
        raise ConfigurationError(f"buffer must be positive, got {buffer_size}")
    return sigma + rate * buffer_size / link_rate


# repro: noqa RPR110 — ROADMAP item 3 (every armed bound shown tight) will call it
def degradation_fraction(
    threshold: float,
    requested_rate: float,
    buffer_size: float,
    link_rate: float,
    sigma: float = 0.0,
) -> float:
    """Fraction of the requested rate actually guaranteed (0..1+).

    Values >= 1 mean the threshold fully covers the reservation.
    """
    if requested_rate <= 0:
        raise ConfigurationError(f"requested rate must be positive, got {requested_rate}")
    return effective_rate(threshold, buffer_size, link_rate, sigma) / requested_rate
