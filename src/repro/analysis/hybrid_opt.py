"""Hybrid-system rate allocation and buffer sizing (Section 4.1).

Given flows grouped into ``k`` FIFO queues with per-queue aggregate
requirements ``(sigma_hat_i, rho_hat_i)``, each queue served at rate
``R_i`` needs buffer ``B_i = R_i sigma_hat_i / (R_i - rho_hat_i)``
(eq. 11).  Splitting the excess capacity as ``R_i = rho_hat_i + alpha_i
(R - rho)`` and minimising total buffer gives Proposition 3:

    alpha_i = sqrt(sigma_hat_i rho_hat_i) / sum_j sqrt(sigma_hat_j rho_hat_j)

with per-queue buffers ``B_i = sigma_hat_i + S sqrt(sigma_hat_i
rho_hat_i) / (R - rho)`` (eq. 18), total ``B_hybrid = sigma + S^2 /
(R - rho)`` (eq. 19) and savings over the single queue given by the
double-sum identity of eq. (17).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError

__all__ = [
    "QueueRequirement",
    "optimal_alphas",
    "queue_rates",
    "hybrid_min_buffers",
    "hybrid_total_buffer",
    "buffer_savings",
    "buffer_savings_identity",
    "hybrid_buffer_for_allocation",
]


@dataclass(frozen=True)
class QueueRequirement:
    """Aggregate requirement of one hybrid queue."""

    sigma_hat: float
    rho_hat: float

    def __post_init__(self) -> None:
        if self.sigma_hat <= 0:
            raise ConfigurationError(f"sigma_hat must be positive, got {self.sigma_hat}")
        if self.rho_hat <= 0:
            raise ConfigurationError(f"rho_hat must be positive, got {self.rho_hat}")

    @property
    def geometric_weight(self) -> float:
        """``sqrt(sigma_hat * rho_hat)`` — Proposition 3's weight."""
        return math.sqrt(self.sigma_hat * self.rho_hat)


def _validate_queues(queues: Sequence[QueueRequirement], link_rate: float) -> float:
    if not queues:
        raise ConfigurationError("at least one queue is required")
    rho_total = sum(queue.rho_hat for queue in queues)
    if rho_total >= link_rate:
        raise ConfigurationError(
            f"aggregate reserved rate {rho_total} >= link rate {link_rate}"
        )
    return rho_total


def optimal_alphas(queues: Sequence[QueueRequirement]) -> list[float]:
    """Proposition 3 (eq. 14): excess-capacity shares minimising buffer."""
    if not queues:
        raise ConfigurationError("at least one queue is required")
    weights = [queue.geometric_weight for queue in queues]
    total = sum(weights)
    return [weight / total for weight in weights]


def queue_rates(
    queues: Sequence[QueueRequirement],
    link_rate: float,
    alphas: Sequence[float] | None = None,
) -> list[float]:
    """Queue service rates ``R_i = rho_hat_i + alpha_i (R - rho)`` (eq. 16).

    ``alphas`` defaults to the optimal split of Proposition 3.  The rates
    always sum to the link rate.
    """
    rho_total = _validate_queues(queues, link_rate)
    if alphas is None:
        alphas = optimal_alphas(queues)
    if len(alphas) != len(queues):
        raise ConfigurationError(
            f"got {len(alphas)} alphas for {len(queues)} queues"
        )
    if any(alpha <= 0 for alpha in alphas):
        raise ConfigurationError("every alpha must be positive")
    if abs(sum(alphas) - 1.0) > 1e-9:
        raise ConfigurationError(f"alphas must sum to 1, got {sum(alphas)}")
    excess = link_rate - rho_total
    return [queue.rho_hat + alpha * excess for queue, alpha in zip(queues, alphas)]


def queue_min_buffer(queue: QueueRequirement, service_rate: float) -> float:
    """Eq. (11): ``B_i = R_i sigma_hat_i / (R_i - rho_hat_i)``."""
    if service_rate <= queue.rho_hat:
        raise ConfigurationError(
            f"service rate {service_rate} must exceed rho_hat {queue.rho_hat}"
        )
    return service_rate * queue.sigma_hat / (service_rate - queue.rho_hat)


def hybrid_min_buffers(
    queues: Sequence[QueueRequirement],
    link_rate: float,
    alphas: Sequence[float] | None = None,
) -> list[float]:
    """Per-queue minimum buffers under a rate split (default: optimal).

    With the optimal split these equal eq. (18):
    ``B_i = sigma_hat_i + S sqrt(sigma_hat_i rho_hat_i) / (R - rho)``.
    """
    rates = queue_rates(queues, link_rate, alphas)
    return [queue_min_buffer(queue, rate) for queue, rate in zip(queues, rates)]


def hybrid_total_buffer(queues: Sequence[QueueRequirement], link_rate: float) -> float:
    """Eq. (19): ``B_hybrid = sigma + S^2 / (R - rho)`` at the optimum."""
    rho_total = _validate_queues(queues, link_rate)
    sigma_total = sum(queue.sigma_hat for queue in queues)
    s = sum(queue.geometric_weight for queue in queues)
    return sigma_total + s * s / (link_rate - rho_total)


# repro: noqa RPR110 — oracle: tests/test_prop_analysis.py bounds the optimum with it
def hybrid_buffer_for_allocation(
    queues: Sequence[QueueRequirement], link_rate: float, alphas: Sequence[float]
) -> float:
    """Total buffer ``sigma + (1/(R-rho)) sum(sigma_hat_i rho_hat_i / alpha_i)``.

    The objective of Proposition 3 before optimisation; useful for showing
    that any other split needs at least as much buffer.
    """
    rho_total = _validate_queues(queues, link_rate)
    if len(alphas) != len(queues):
        raise ConfigurationError(f"got {len(alphas)} alphas for {len(queues)} queues")
    if any(alpha <= 0 for alpha in alphas):
        raise ConfigurationError("every alpha must be positive")
    sigma_total = sum(queue.sigma_hat for queue in queues)
    penalty = sum(
        queue.sigma_hat * queue.rho_hat / alpha for queue, alpha in zip(queues, alphas)
    )
    return sigma_total + penalty / (link_rate - rho_total)


def buffer_savings(queues: Sequence[QueueRequirement], link_rate: float) -> float:
    """``B_FIFO - B_hybrid`` for the optimal split (direct evaluation)."""
    rho_total = _validate_queues(queues, link_rate)
    sigma_total = sum(queue.sigma_hat for queue in queues)
    b_fifo = link_rate * sigma_total / (link_rate - rho_total)
    return b_fifo - hybrid_total_buffer(queues, link_rate)


# repro: noqa RPR110 — oracle: tests/test_prop_analysis.py checks buffer_savings against it
def buffer_savings_identity(queues: Sequence[QueueRequirement], link_rate: float) -> float:
    """Eq. (17): the savings as the non-negative double sum

        sum_{i<j} (sqrt(sigma_i rho_j) - sqrt(sigma_j rho_i))^2 / (R - rho)

    Expanding ``sigma * rho - S^2`` pairwise shows the identity holds when
    each *unordered* pair is counted once (the diagonal vanishes); the
    paper's ``sum_{i,j=1}^k`` notation is read that way, which makes the
    identity with :func:`buffer_savings` exact.
    """
    rho_total = _validate_queues(queues, link_rate)
    total = 0.0
    for i, queue_i in enumerate(queues):
        for j, queue_j in enumerate(queues):
            if i >= j:
                continue
            term = math.sqrt(queue_i.sigma_hat * queue_j.rho_hat) - math.sqrt(
                queue_j.sigma_hat * queue_i.rho_hat
            )
            total += term * term
    return total / (link_rate - rho_total)
