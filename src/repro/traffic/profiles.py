"""Flow traffic profiles.

A :class:`FlowSpec` carries everything the experiments need to know about
one flow: how it *behaves* (peak rate, average rate, mean burst length)
and what it *reserved* (token bucket ``sigma`` and token rate ``rho``).
Conformant flows are additionally run through a leaky-bucket regulator so
their traffic matches the reservation; non-conformant flows are fed to the
network unshaped — the paper's Tables 1 and 2 are built exactly this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["FlowSpec"]


@dataclass(frozen=True)
class FlowSpec:
    """Traffic behaviour and reservation of one flow.

    Attributes:
        flow_id: unique integer id.
        peak_rate: on-state emission rate, bytes/second.
        avg_rate: long-run average emission rate, bytes/second.
        bucket: reserved token-bucket size ``sigma``, bytes.
        token_rate: reserved token rate ``rho``, bytes/second.
        conformant: whether the flow is shaped to ``(sigma, rho)`` before
            entering the network.
        mean_burst: mean bytes emitted per on-period.  For conformant
            flows this is conventionally the bucket size; the paper's
            non-conformant flows use larger values (e.g. 5x the bucket).
    """

    flow_id: int
    peak_rate: float
    avg_rate: float
    bucket: float
    token_rate: float
    conformant: bool
    mean_burst: float

    def __post_init__(self) -> None:
        # `not 0 < x < inf` refuses NaN too: it fails every comparison.
        if not 0 < self.peak_rate < math.inf:
            raise ConfigurationError(f"flow {self.flow_id}: peak rate must be positive and finite")
        if not 0 < self.avg_rate <= self.peak_rate:
            raise ConfigurationError(
                f"flow {self.flow_id}: need 0 < avg_rate <= peak_rate, "
                f"got avg={self.avg_rate}, peak={self.peak_rate}"
            )
        if not 0 < self.bucket < math.inf:
            raise ConfigurationError(f"flow {self.flow_id}: bucket must be positive and finite")
        if not 0 < self.token_rate < math.inf:
            raise ConfigurationError(f"flow {self.flow_id}: token rate must be positive and finite")
        if not 0 < self.mean_burst < math.inf:
            raise ConfigurationError(f"flow {self.flow_id}: mean burst must be positive and finite")

    def to_dict(self) -> dict:
        """Canonical JSON-friendly form; round-trips via :meth:`from_dict`.

        Numeric fields are coerced so that int-valued inputs (e.g. a rate
        given as 1000000 rather than 1000000.0) serialize identically to
        their float equivalents: a job digest must not depend on which
        numeric type the caller happened to use.
        """
        return {
            "flow_id": int(self.flow_id),
            "peak_rate": float(self.peak_rate),
            "avg_rate": float(self.avg_rate),
            "bucket": float(self.bucket),
            "token_rate": float(self.token_rate),
            "conformant": bool(self.conformant),
            "mean_burst": float(self.mean_burst),
        }

    @staticmethod
    def from_dict(raw: dict) -> "FlowSpec":
        return FlowSpec(
            flow_id=int(raw["flow_id"]),
            peak_rate=float(raw["peak_rate"]),
            avg_rate=float(raw["avg_rate"]),
            bucket=float(raw["bucket"]),
            token_rate=float(raw["token_rate"]),
            conformant=bool(raw["conformant"]),
            mean_burst=float(raw["mean_burst"]),
        )

    @property
    def profile(self) -> tuple[float, float]:
        """The reserved ``(sigma, rho)`` pair in (bytes, bytes/second)."""
        return (self.bucket, self.token_rate)
