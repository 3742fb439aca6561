"""Closed-form buffer requirements (Section 2.3, eqs. 5-13).

These are the paper's headline analytical results comparing the buffer a
plain-FIFO-plus-thresholds system needs against a WFQ scheduler:

* WFQ with a fully partitioned buffer is schedulable iff
  ``R >= sum(rho_i)`` and ``B >= sum(sigma_i)`` (eqs. 5-6);
* FIFO with thresholds needs in addition
  ``B >= sum(sigma_i) / (1 - u)`` where ``u = sum(rho_i)/R`` is the
  reserved utilisation (eqs. 8-10) — unbounded as ``u -> 1``.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError

__all__ = [
    "wfq_min_buffer",
    "fifo_min_buffer",
    "buffer_vs_utilization",
]


def _validate(sigmas: Sequence[float], rhos: Sequence[float] | None = None) -> None:
    if rhos is not None and len(sigmas) != len(rhos):
        raise ConfigurationError(
            f"sigma/rho length mismatch: {len(sigmas)} vs {len(rhos)}"
        )
    for sigma in sigmas:
        if sigma < 0:
            raise ConfigurationError(f"burst sizes must be non-negative, got {sigma}")
    if rhos is not None:
        for rho in rhos:
            if rho < 0:
                raise ConfigurationError(f"rates must be non-negative, got {rho}")


def wfq_min_buffer(sigmas: Sequence[float]) -> float:
    """Minimum total buffer for lossless WFQ service: ``sum(sigma_i)`` (eq. 6)."""
    _validate(sigmas)
    return float(sum(sigmas))


def fifo_min_buffer(sigmas: Sequence[float], rhos: Sequence[float], link_rate: float) -> float:
    """Minimum buffer for lossless FIFO-with-thresholds service (eq. 9).

        B >= R * sum(sigma_i) / (R - sum(rho_i))

    Raises if the reserved rates meet or exceed the link rate, where the
    requirement is unbounded.
    """
    _validate(sigmas, rhos)
    if link_rate <= 0:
        raise ConfigurationError(f"link rate must be positive, got {link_rate}")
    rho_total = float(sum(rhos))
    if rho_total >= link_rate:
        raise ConfigurationError(
            f"reserved rate {rho_total} >= link rate {link_rate}: "
            "buffer requirement is unbounded"
        )
    return link_rate * float(sum(sigmas)) / (link_rate - rho_total)


def buffer_vs_utilization(utilization: float, sigma_total: float) -> float:
    """Eq. (10): ``B >= sigma_total / (1 - u)`` for reserved utilisation u."""
    if not 0 <= utilization < 1:
        raise ConfigurationError(f"utilization must be in [0, 1), got {utilization}")
    if sigma_total < 0:
        raise ConfigurationError(f"sigma_total must be non-negative, got {sigma_total}")
    return sigma_total / (1.0 - utilization)
