"""Adversarial traffic patterns from the paper's analysis.

Two worst-case behaviours drive the necessity arguments of Section 2:

* :class:`ThresholdFillingSource` — Example 1's greedy flow: it reacts
  to its own departures so that its buffer occupancy sits at its
  threshold at all times ("its arrival process is such that
  Q_2(t) = B_2 for all t >= 0").  Unlike a plain overdriven CBR source,
  it offers exactly what the buffer will accept, so drop counters stay
  meaningful.
* :class:`FillThenBurstSource` — the Prop-2 necessity construction: send
  at the token rate (never spending the burst allowance) until the
  ``rho B / R`` share of the buffer is full, then dump the entire
  ``sigma`` burst instantaneously.  Conformant by construction, and the
  worst case for the ``sigma + rho B / R`` threshold.
"""

from __future__ import annotations

from math import inf

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort

__all__ = ["ThresholdFillingSource", "FillThenBurstSource"]


class ThresholdFillingSource:
    """Keep a flow's buffer occupancy pinned at a target level.

    Polls the port's manager at a fine period and tops the flow's
    occupancy back up to ``target`` whenever departures open space.  The
    polling period should be at most one packet transmission time for a
    faithful rendition of the fluid model.

    Args:
        sim: simulation engine.
        flow_id: the greedy flow's id.
        port: output port whose manager is observed and fed.
        target: occupancy level in bytes to maintain.
        packet_size: granularity of the topping-up packets.
        period: polling period in seconds.
        until: stop at this time.
    """

    __slots__ = (
        "sim",
        "flow_id",
        "port",
        "target",
        "packet_size",
        "period",
        "until",
        "offered_packets",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        port: OutputPort,
        target: float,
        packet_size: float = 500.0,
        period: float | None = None,
        until: float | None = None,
    ) -> None:
        # `not 0 < x < inf` refuses NaN too: it fails every comparison.
        if not (0.0 < target < inf and 0.0 < packet_size < inf):
            raise ConfigurationError(
                f"target and packet size must be positive and finite, got "
                f"({target}, {packet_size})"
            )
        if period is not None and not 0.0 < period < inf:
            raise ConfigurationError(f"period must be positive and finite, got {period}")
        self.sim = sim
        self.flow_id = flow_id
        self.port = port
        self.target = float(target)
        self.packet_size = float(packet_size)
        self.period = float(period if period is not None else packet_size / port.rate)
        self.until = until
        self.offered_packets = 0
        sim.schedule_at(sim.now, self._top_up)

    def _top_up(self) -> float | None:
        """Refill to ``target``; return the period. Overrides return ``super()``'s."""
        if self.until is not None and self.sim.now >= self.until:
            return None
        occupancy = self.port.manager.occupancy(self.flow_id)
        while occupancy + self.packet_size <= self.target:
            packet = Packet(self.flow_id, self.packet_size, self.sim.now)
            self.offered_packets += 1
            if not self.port.receive(packet):
                break
            occupancy = self.port.manager.occupancy(self.flow_id)
        return self.period


# repro: noqa RPR110 — ROADMAP item 3 (every armed bound shown tight) will call it
class FillThenBurstSource:
    """The Proposition-2 necessity adversary (conformant worst case).

    Phase 1: CBR at the token rate ``rho`` until ``burst_at``; the token
    bucket stays full because the flow never exceeds ``rho``.
    Phase 2: at ``burst_at``, dump ``sigma`` bytes instantaneously.
    Phase 3: continue at ``rho`` until ``until``.

    The emitted stream is ``(sigma, rho)``-conformant, and with
    ``burst_at`` chosen so that the flow's steady-state share
    ``rho B / R`` of the buffer is occupied, it exactly attains the
    ``sigma + rho B / R`` threshold of Proposition 2.
    """

    __slots__ = (
        "sim",
        "flow_id",
        "sigma",
        "rho",
        "sink",
        "packet_size",
        "until",
        "burst_fired",
        "_spacing",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        sigma: float,
        rho: float,
        sink,
        burst_at: float,
        packet_size: float = 500.0,
        until: float | None = None,
    ) -> None:
        if not 0.0 < packet_size <= sigma < inf:
            raise ConfigurationError(
                f"sigma ({sigma}) must be finite and cover at least one packet "
                f"({packet_size})"
            )
        if not 0.0 < rho < inf:
            raise ConfigurationError(f"rho must be positive and finite, got {rho}")
        if not burst_at >= 0.0:
            raise ConfigurationError(f"burst_at must be non-negative, got {burst_at}")
        self.sim = sim
        self.flow_id = flow_id
        self.sigma = float(sigma)
        self.rho = float(rho)
        self.sink = sink
        self.packet_size = float(packet_size)
        self.until = until
        self.burst_fired = False
        self._spacing = self.packet_size / self.rho
        sim.schedule_at(sim.now, self._emit_cbr)
        sim.schedule_at(burst_at, self._dump_burst)

    def _stopped(self) -> bool:
        return self.until is not None and self.sim.now >= self.until

    def _emit(self, size: float) -> None:
        self.sink.receive(Packet(self.flow_id, size, self.sim.now))

    def _emit_cbr(self) -> float | None:
        """Emit one packet; return the spacing. Overrides return ``super()``'s."""
        if self._stopped():
            return None
        self._emit(self.packet_size)
        return self._spacing

    def _dump_burst(self) -> None:
        if self._stopped() or self.burst_fired:
            return
        self.burst_fired = True
        # The CBR phase leaves the bucket one in-flight packet short of
        # full, so a dump of sigma - packet_size is the largest burst
        # that keeps the stream strictly conformant.
        for _ in range(int((self.sigma - self.packet_size) // self.packet_size)):
            self._emit(self.packet_size)
