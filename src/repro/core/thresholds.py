"""Threshold computation rules from Sections 2 and 3.2 of the paper.

The central formula: a flow with leaky-bucket profile ``(sigma_i, rho_i)``
multiplexed into a FIFO buffer of size ``B`` drained at rate ``R`` is
guaranteed lossless service if its buffer-occupancy threshold is

    T_i = sigma_i + rho_i * B / R        (Proposition 2)

(``sigma_i = 0`` recovers the peak-rate result of Proposition 1).  When the
total buffer exceeds the sum of these thresholds, footnote 5 scales all
thresholds up proportionally so the buffer is fully partitioned.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConfigurationError

__all__ = [
    "flow_threshold",
    "compute_thresholds",
    "scale_to_partition",
    "hybrid_flow_threshold",
]


def flow_threshold(sigma: float, rho: float, buffer_size: float, link_rate: float) -> float:
    """Reserved threshold ``sigma + rho * B / R`` for one flow (Prop. 2).

    Args:
        sigma: token-bucket (burst) size in bytes.
        rho: token (reserved) rate in bytes/second.
        buffer_size: total buffer ``B`` in bytes.
        link_rate: link rate ``R`` in bytes/second.
    """
    if sigma < 0 or rho < 0:
        raise ConfigurationError(f"sigma and rho must be non-negative, got ({sigma}, {rho})")
    if buffer_size <= 0 or link_rate <= 0:
        raise ConfigurationError(
            f"buffer size and link rate must be positive, got ({buffer_size}, {link_rate})"
        )
    return sigma + rho * buffer_size / link_rate


def compute_thresholds(
    profiles: Mapping[int, tuple[float, float]],
    buffer_size: float,
    link_rate: float,
) -> dict[int, float]:
    """Per-flow thresholds for a shared buffer (Section 3.2), scaled up
    by footnote 5 when they sum to less than ``B``.

    Args:
        profiles: mapping flow id -> ``(sigma_bytes, rho_bytes_per_s)``.
        buffer_size: total buffer ``B`` in bytes.
        link_rate: link rate ``R`` in bytes/second.

    Returns:
        Mapping flow id -> threshold in bytes.
    """
    thresholds = {
        flow_id: flow_threshold(sigma, rho, buffer_size, link_rate)
        for flow_id, (sigma, rho) in profiles.items()
    }
    return scale_to_partition(thresholds, buffer_size)


def scale_to_partition(thresholds: Mapping[int, float], buffer_size: float) -> dict[int, float]:
    """Scale thresholds up so they sum to at least ``buffer_size``.

    Implements footnote 5: "When the total number of buffers is larger than
    the sum of these thresholds, then all thresholds are appropriately
    scaled up so as to fully partition the buffer."  Thresholds that
    already (over-)subscribe the buffer are returned unchanged.
    """
    total = sum(thresholds.values())
    if total <= 0 or total >= buffer_size:
        return dict(thresholds)
    factor = buffer_size / total
    return {flow_id: threshold * factor for flow_id, threshold in thresholds.items()}


def hybrid_flow_threshold(
    sigma: float, rho: float, queue_rate_sum: float, queue_buffer: float
) -> float:
    """Threshold of a flow inside a hybrid-system queue (Section 4.2).

    Flow ``j`` in queue ``i`` is allocated ``sigma_j + (rho_j / rho_hat_i)
    * B_i`` where ``rho_hat_i`` is the sum of the token rates of the flows
    grouped into queue ``i`` and ``B_i`` the buffer partition of the queue.
    """
    if queue_rate_sum <= 0:
        raise ConfigurationError(f"queue rate sum must be positive, got {queue_rate_sum}")
    if queue_buffer <= 0:
        raise ConfigurationError(f"queue buffer must be positive, got {queue_buffer}")
    return sigma + (rho / queue_rate_sum) * queue_buffer

