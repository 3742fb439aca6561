"""Delay bounds for FIFO buffers (Section 1's scalability argument).

The paper trades tight per-flow delay control for scalability, arguing
that on very high-speed links even the worst-case FIFO delay is small:
"the worst case delay caused by a 1MByte buffer feeding an OC-48 link
(2.4Gbits/sec) is less than 3.5msec".  This module provides those
numbers.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.units import mbps

__all__ = [
    "worst_case_fifo_delay",
    "OC3", "OC12", "OC48", "OC192",
]

#: Common SONET link rates, bytes/second.
OC3 = mbps(155.52)
OC12 = mbps(622.08)
OC48 = mbps(2488.32)
OC192 = mbps(9953.28)


def worst_case_fifo_delay(buffer_size: float, link_rate: float) -> float:
    """Maximum queueing delay of a FIFO buffer: ``B / R`` seconds.

    Any admitted bit waits behind at most a full buffer, which drains at
    the link rate.  This is the bound behind the paper's OC-48 example.
    """
    if buffer_size <= 0:
        raise ConfigurationError(f"buffer size must be positive, got {buffer_size}")
    if link_rate <= 0:
        raise ConfigurationError(f"link rate must be positive, got {link_rate}")
    return buffer_size / link_rate
