"""Packet sources.

All sources emit :class:`repro.sim.packet.Packet` objects into a ``sink``
(an output port or a shaper) via ``sink.receive(packet)``.

* :class:`OnOffSource` — the paper's workload: a Markov-modulated on-off
  source that transmits maximum-size packets at its peak rate while ON.
* :class:`CBRSource` — constant bit rate; used for peak-rate-conformant
  flows (Proposition 1) and as a building block in tests.
* :class:`GreedySource` — a CBR source faster than the link; emulates the
  "greedy" flow of Example 1 that always keeps its buffer share full.

Each emission returns the gap to the next one and the event queue
re-queues it (:meth:`~repro.sim.equeue.EventQueue.drain`), so the
steady-state emission path allocates one packet and no event entry per
emission, or hands the chain to a backlogged shaper.
"""

from __future__ import annotations

from math import inf

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.rng import Generator

__all__ = ["OnOffSource", "CBRSource", "GreedySource"]

#: The paper's packet size: "maximum size (500 bytes) packets".
DEFAULT_PACKET_SIZE = 500.0


class OnOffSource:
    """Markov-modulated on-off source.

    While ON the source emits ``packet_size`` packets back-to-back at
    ``peak_rate``; burst lengths are geometric in packets with mean
    ``mean_burst / packet_size`` (a discretised exponential ON period),
    and OFF periods are exponential with mean chosen so the long-run
    average rate equals ``avg_rate``:

        mean_off = (mean_burst / peak) * (peak / avg - 1)

    Args:
        sim: simulation engine.
        flow_id: id stamped on emitted packets.
        peak_rate: ON-state rate, bytes/second.
        avg_rate: long-run average rate, bytes/second (< peak for on-off
            behaviour; == peak degenerates to CBR).
        mean_burst: mean bytes per ON period.
        sink: downstream ``receive(packet)`` target.
        rng: the source's own random stream.
        packet_size: bytes per packet.
        start: time of the first burst decision.
        until: stop emitting at this time (None = never stop; stored as ``inf``).
    """

    __slots__ = (
        "sim",
        "flow_id",
        "peak_rate",
        "avg_rate",
        "mean_burst",
        "sink",
        "rng",
        "packet_size",
        "until",
        "_spacing",
        "_mean_burst_packets",
        "_burst_p",
        "_mean_off",
        "_remaining",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        peak_rate: float,
        avg_rate: float,
        mean_burst: float,
        sink,
        rng: Generator,
        packet_size: float = DEFAULT_PACKET_SIZE,
        start: float = 0.0,
        until: float | None = None,
    ) -> None:
        if not (0.0 < peak_rate < inf and 0.0 < avg_rate < inf and 0.0 < packet_size < inf):
            raise ConfigurationError(  # a zero gap returned for ever stalls the clock
                f"rates and packet_size must be positive and finite, got "
                f"({peak_rate}, {avg_rate}, {packet_size})"
            )
        if not avg_rate <= peak_rate:
            raise ConfigurationError(
                f"need 0 < avg_rate <= peak_rate, got ({avg_rate}, {peak_rate})"
            )
        if not packet_size <= mean_burst < inf:
            raise ConfigurationError(
                f"mean burst {mean_burst} must be finite and at least one packet "
                f"({packet_size})"
            )
        self.sim = sim
        self.flow_id = flow_id
        self.peak_rate = float(peak_rate)
        self.avg_rate = float(avg_rate)
        self.mean_burst = float(mean_burst)
        self.sink = sink
        self.rng = rng
        self.packet_size = float(packet_size)
        self.until = inf if until is None else until
        self._spacing = self.packet_size / self.peak_rate
        self._mean_burst_packets = self.mean_burst / self.packet_size
        # Geometric number of packets with mean mean_burst_packets (>= 1).
        self._burst_p = min(1.0, 1.0 / max(self._mean_burst_packets, 1.0))
        mean_on = self.mean_burst / self.peak_rate
        self._mean_off = mean_on * (self.peak_rate / self.avg_rate - 1.0)
        # Randomise the initial phase so simultaneous sources do not
        # synchronise their first bursts.
        initial_delay = 0.0
        if self._mean_off > 0:
            initial_delay = rng.exponential(self._mean_off)
        self._remaining = rng.geometric(self._burst_p)  # packets left in the burst
        sim.schedule_at(start + initial_delay, self._emit)

    def stop(self) -> None:
        """Silence the source from the current instant onwards.

        Dynamic-flow teardown (:mod:`repro.experiments.fabric`) calls
        this when a churning flow departs: a queued event cannot be
        withdrawn, so the pending emission fires (queued or shaper-held)
        and ends the chain.
        """
        self.until = self.sim.now

    def _emit(self) -> float | None:
        """Emit one packet; return the gap to the next. Overrides return ``super()``'s."""
        now = self.sim.now
        if now >= self.until:
            return None
        taken = self.sink.receive(Packet(self.flow_id, self.packet_size, now)) is self.sink
        remaining = self._remaining - 1
        if remaining:
            self._remaining = remaining
            gap = self._spacing
        else:  # inline, as in _burst_end: no frame per emission
            # The last packet of the burst "occupies" one spacing at peak
            # rate before the OFF period starts, so the ON-state rate is
            # exactly the peak rate.  The next burst's geometric length
            # (mean >= 1 packets) is drawn with its OFF gap: the stream's
            # order stays OFF, burst, OFF, burst.
            gap = self._spacing
            if self._mean_off > 0:
                gap += self.rng.exponential(self._mean_off)
            self._remaining = self.rng.geometric(self._burst_p)
        if taken:  # a backlogged shaper pulls the chain until its queue empties
            self.sink._take(self, now + gap)
            return None
        return gap

    def _burst_end(self) -> float:
        """What ``_emit`` does after a burst's last packet, for a shaper pulling the source."""
        gap = self._spacing
        if self._mean_off > 0:
            gap += self.rng.exponential(self._mean_off)
        self._remaining = self.rng.geometric(self._burst_p)
        return gap


class CBRSource:
    """Constant-bit-rate source: one packet every ``packet_size / rate``."""

    __slots__ = (
        "sim",
        "flow_id",
        "rate",
        "sink",
        "packet_size",
        "until",
        "_spacing",
    )

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        rate: float,
        sink,
        packet_size: float = DEFAULT_PACKET_SIZE,
        start: float = 0.0,
        until: float | None = None,
    ) -> None:
        if not (0.0 < rate < inf and 0.0 < packet_size < inf):
            raise ConfigurationError(
                f"rate and packet_size must be positive and finite, got ({rate}, {packet_size})"
            )
        self.sim = sim
        self.flow_id = flow_id
        self.rate = float(rate)
        self.sink = sink
        self.packet_size = float(packet_size)
        self.until = inf if until is None else until
        self._spacing = self.packet_size / self.rate
        sim.schedule_at(start, self._emit)

    def stop(self) -> None:
        """Silence the source from the current instant onwards."""
        self.until = self.sim.now

    def _emit(self) -> float | None:
        """Emit one packet; return the gap to the next. Overrides return ``super()``'s."""
        now = self.sim.now
        if now >= self.until:
            return None
        self.sink.receive(Packet(self.flow_id, self.packet_size, now))
        return self._spacing


class GreedySource(CBRSource):
    """A source that offers more than the link can carry.

    Example 1 of the paper analyses a flow that "seeks to greedily always
    occupy its maximum allowed buffer share"; offering 1.25 times the
    link rate from t = 0 achieves exactly that against any admission
    policy, since every departure is immediately replaced.
    """

    __slots__ = ()

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        link_rate: float,
        sink,
        packet_size: float = DEFAULT_PACKET_SIZE,
        until: float | None = None,
    ) -> None:
        super().__init__(
            sim, flow_id, link_rate * 1.25, sink, packet_size=packet_size, until=until
        )
