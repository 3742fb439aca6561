"""Leaky-bucket regulation: shaping and conformance metering.

Two related components:

* :class:`LeakyBucketShaper` — a delay element placed between a source and
  the network.  Packets leave only when the ``(sigma, rho)`` token bucket
  has enough tokens, so the *output* stream satisfies
  ``A(t) - A(s) <= sigma + rho (t - s)`` (eq. 2 of the paper).  This is
  how the paper's conformant flows are produced.  While backlogged it pulls
  its on-off source, firing each emission at its own time at a release.
* :class:`TokenBucketMeter` — a pure observer that tags each arrival as
  conformant or not and exposes the remaining *burst potential*
  ``sigma(t)`` of eq. (3).  Used by the analysis and the tests.
"""

from __future__ import annotations

from collections import deque
from math import inf, nextafter

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.packet import Packet

__all__ = ["LeakyBucketShaper", "TokenBucketMeter"]

#: Byte-scale tolerance for token comparisons.  Token refills accumulate
#: float error; without a tolerance, a deficit of ~1e-11 bytes produces a
#: release delay smaller than one ulp of the clock and the release event
#: re-fires at the same timestamp forever.
_EPSILON_BYTES = 1e-6


class LeakyBucketShaper:
    """Shape a packet stream to a ``(sigma, rho)`` envelope by delaying.

    Packets are never dropped; an unbounded shaping queue holds packets
    until the token bucket can pay for them.  The bucket starts full.

    Args:
        sim: simulation engine (for scheduling releases).
        sigma: bucket depth in bytes; must be at least the largest packet.
        rho: token rate in bytes/second.
        sink: downstream object with a ``receive(packet)`` method.
    """

    __slots__ = (
        "sim",
        "sigma",
        "rho",
        "sink",
        "_tokens",
        "_last_update",
        "_queue",
        "_release_pending",
        "_bound_release",
        "_held",
        "_held_at",
    )

    def __init__(self, sim: Simulator, sigma: float, rho: float, sink) -> None:
        # `not 0 < x < inf` refuses NaN too: it fails every comparison.
        if not 0.0 < sigma < inf:
            raise ConfigurationError(f"sigma must be positive and finite, got {sigma}")
        if not 0.0 < rho < inf:
            raise ConfigurationError(f"rho must be positive and finite, got {rho}")
        self.sim = sim
        self.sigma = float(sigma)
        self.rho = float(rho)
        self.sink = sink
        self._tokens = float(sigma)
        self._last_update = sim.now
        self._queue: deque[Packet] = deque()
        self._release_pending = False
        # Bound once: every release chain starts with this callback.
        self._bound_release = self._release
        # The on-off source pulled while backlogged, and its next emission's
        # due time (``inf``: none).
        self._held, self._held_at = None, inf

    def receive(self, packet: Packet) -> LeakyBucketShaper | None:
        """Accept a packet; forward now or later; return self if queued and pulling no source."""
        size = packet.size
        if size > self.sigma:
            raise SimulationError(
                f"packet of {size} bytes can never conform to sigma={self.sigma}"
            )
        now = self.sim.now
        if self._held_at <= now:  # another feeder: the held source's due emissions go first
            self._replay(now)
        tokens = self._tokens
        if now > self._last_update:
            tokens += self.rho * (now - self._last_update)
            if tokens > self.sigma:
                tokens = self.sigma
            self._last_update = now
        queue = self._queue
        if not queue and tokens + _EPSILON_BYTES >= size:
            tokens -= size
            self._tokens = tokens if tokens >= 0.0 else 0.0
            self.sink.receive(packet)
            return
        self._tokens = tokens
        queue.append(packet)
        if not self._release_pending:
            # Releases are gated by _release_pending: one queued at a time.
            self._release_pending = True
            deficit = queue[0].size - tokens
            self.sim.schedule_fast(
                (deficit if deficit >= 0.0 else 0.0) / self.rho, self._bound_release
            )
        return self if self._held is None else None

    def _take(self, source, at: float) -> None:  # pull `source` from its emission due `at`
        self._held, self._held_at = source, at
        self.sim._holders[self] = None

    def _replay(self, due: float) -> bool:
        """Make the held emissions due by ``due`` as their events would; False past max_events."""
        sim = self.sim
        source, at = self._held, self._held_at
        while at <= due and sim._events_processed <= sim._event_limit:
            sim._events_processed += 1
            if at >= source.until:  # stopped: the chain ends, as a pushed emission's would
                self._held, at = None, inf
                del sim._holders[self]
                break
            if at > self._last_update:  # receive()'s refill, at the emission's time
                tokens = self._tokens + self.rho * (at - self._last_update)
                self._tokens = self.sigma if tokens > self.sigma else tokens
                self._last_update = at
            self._queue.append(Packet(source.flow_id, source.packet_size, at))
            source._remaining -= 1  # the key the event queue would give the next:
            at = at + (source._spacing if source._remaining else source._burst_end())
        self._held_at = at
        return sim._events_processed <= sim._event_limit

    def _release(self) -> float | None:
        """Release what tokens cover; return the next wait. Overrides return ``super()``'s."""
        sim = self.sim
        now = sim.now
        if self._held_at < now:  # held emissions first, counted before this release
            sim._events_processed -= 1
            if not self._replay(nextafter(now, -inf)):  # one due at `now` comes after it
                return 0.0  # past max_events: this release has not fired yet
            sim._events_processed += 1
        self._release_pending = False
        tokens = self._tokens
        if now > self._last_update:
            tokens += self.rho * (now - self._last_update)
            if tokens > self.sigma:
                tokens = self.sigma
            self._last_update = now
            self._tokens = tokens
        queue = self._queue
        while queue and tokens + _EPSILON_BYTES >= queue[0].size:
            packet = queue.popleft()
            tokens -= packet.size
            if tokens < 0.0:
                tokens = 0.0
            self._tokens = tokens
            self.sink.receive(packet)
        if queue:
            self._release_pending = True
            deficit = queue[0].size - tokens
            return (deficit if deficit >= 0.0 else 0.0) / self.rho
        if self._held is not None:  # backlog gone: the chain goes back, keyed absolutely
            sim.schedule_at(self._held_at, self._held._emit)
            self._held, self._held_at = None, inf
            del sim._holders[self]
        return None


class TokenBucketMeter:
    """Passive ``(sigma, rho)`` conformance meter.

    ``observe(time, size)`` returns whether the arrival is conformant and
    debits the bucket either way (so a burst of violations does not earn
    later credit).  ``burst_potential(time)`` is the token level — the
    process ``sigma_i(t)`` of eq. (3), i.e. the largest burst the flow
    could still emit instantaneously while remaining conformant.
    """

    __slots__ = ("sigma", "rho", "_tokens", "_last")

    def __init__(self, sigma: float, rho: float, start: float = 0.0) -> None:
        if not (0.0 < sigma < inf and 0.0 < rho < inf):  # refuses NaN too
            raise ConfigurationError(
                f"sigma and rho must be positive and finite, got ({sigma}, {rho})"
            )
        self.sigma = float(sigma)
        self.rho = float(rho)
        self._tokens = float(sigma)
        self._last = float(start)

    def _advance(self, time: float) -> None:
        if time < self._last - 1e-12:
            raise SimulationError(f"meter observed time going backwards: {time} < {self._last}")
        self._tokens = min(self.sigma, self._tokens + self.rho * (time - self._last))
        self._last = max(time, self._last)

    def burst_potential(self, time: float) -> float:
        """Token level ``sigma(t)`` at the given time (clamped at >= 0)."""
        self._advance(time)
        return max(self._tokens, 0.0)

    def observe(self, time: float, size: float) -> bool:
        """Record an arrival; True iff it fits the envelope."""
        self._advance(time)
        # Byte-scale tolerance: event times accumulate float error, so a
        # stream emitted exactly at rho can refill fractionally short.
        conformant = self._tokens >= size - _EPSILON_BYTES
        self._tokens -= size
        return conformant
