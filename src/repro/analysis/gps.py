"""Fluid Generalized Processor Sharing (GPS) reference simulator.

WFQ (packetized GPS) is defined by reference to an ideal *fluid* system
in which every backlogged flow ``i`` is served simultaneously at rate

    r_i(t) = w_i / (sum of weights of backlogged flows) * R.

This module simulates that fluid system exactly (event-driven over
arrival instants and backlog-depletion instants) and reports per-packet
*GPS finish times* — the moments at which the fluid service of a flow
crosses each packet boundary.  It provides the ground truth against
which the packetized schedulers are validated:

* Parekh–Gallager: a GPS-tracking packetized scheduler finishes every
  packet no later than ``GPS finish + L_max / R``;
* each backlogged flow's fluid service is exactly proportional to its
  weight over any interval in which the backlogged set is constant.

The simulator is for analysis and testing; the runtime schedulers live
in :mod:`repro.sched`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ConfigurationError, SimulationError

__all__ = ["gps_finish_times"]


@dataclass(frozen=True)
class GPSArrival:
    """One packet arrival into the fluid system."""

    time: float
    flow_id: int
    size: float


@dataclass(frozen=True)
class GPSFinish:
    """GPS finish time of one packet (same order as the input)."""

    arrival: GPSArrival
    finish: float


class _FlowState:
    __slots__ = ("weight", "service", "boundaries", "arrived")

    def __init__(self, weight: float):
        self.weight = weight
        self.service = 0.0          # cumulative fluid service, bytes
        self.arrived = 0.0          # cumulative arrivals, bytes
        self.boundaries: list[tuple[float, int]] = []  # (cum position, idx)


# repro: noqa RPR110 — oracle: tests/test_prop_gps_wfq.py holds WFQ departures to GPS finish times
def gps_finish_times(
    arrivals: Sequence[GPSArrival] | Sequence[tuple[float, int, float]],
    weights: Mapping[int, float],
    rate: float,
) -> list[GPSFinish]:
    """Exact fluid-GPS finish time of every packet.

    Args:
        arrivals: time-ordered packet arrivals, as :class:`GPSArrival`
            or ``(time, flow_id, size)`` tuples.
        weights: positive weight per flow id; flows absent from the
            arrival list are allowed and simply never backlogged.
        rate: server rate in bytes/second.

    Returns:
        One :class:`GPSFinish` per arrival, in input order.
    """
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    normalized: list[GPSArrival] = []
    for item in arrivals:
        arrival = item if isinstance(item, GPSArrival) else GPSArrival(*item)
        if arrival.size <= 0:
            raise ConfigurationError(f"packet size must be positive, got {arrival.size}")
        if arrival.flow_id not in weights:
            raise ConfigurationError(f"no weight for flow {arrival.flow_id}")
        if normalized and arrival.time < normalized[-1].time - 1e-12:
            raise ConfigurationError("arrivals must be time-ordered")
        normalized.append(arrival)
    for flow_id, weight in weights.items():
        if weight <= 0:
            raise ConfigurationError(f"weight for flow {flow_id} must be positive")

    flows: dict[int, _FlowState] = {}
    finishes: list[float | None] = [None] * len(normalized)
    now = 0.0
    pending = list(enumerate(normalized))
    pending_pos = 0

    def backlogged() -> list[_FlowState]:
        return [flow for flow in flows.values() if flow.arrived - flow.service > 1e-12]

    while pending_pos < len(pending) or backlogged():
        next_arrival_time = (
            pending[pending_pos][1].time if pending_pos < len(pending) else None
        )
        active = backlogged()
        if not active:
            # Idle: jump to the next arrival.
            if next_arrival_time is None:
                raise SimulationError(
                    "GPS reference idle with no pending arrivals but "
                    "unfinished backlog bookkeeping"
                )
            now = max(now, next_arrival_time)
            while (
                pending_pos < len(pending)
                and pending[pending_pos][1].time <= now + 1e-15
            ):
                index, arrival = pending[pending_pos]
                flow = flows.setdefault(arrival.flow_id, _FlowState(weights[arrival.flow_id]))
                flow.arrived += arrival.size
                flow.boundaries.append((flow.arrived, index))
                pending_pos += 1
            continue

        total_weight = sum(flow.weight for flow in active)
        # Time until the first active flow empties at current rates.
        horizon = min(
            (flow.arrived - flow.service) * total_weight / (flow.weight * rate)
            for flow in active
        )
        if next_arrival_time is not None:
            horizon = min(horizon, next_arrival_time - now)
        horizon = max(horizon, 0.0)

        # Serve fluid for `horizon` seconds, emitting boundary crossings.
        for flow in active:
            flow_rate = flow.weight / total_weight * rate
            start_service = flow.service
            target = start_service + flow_rate * horizon
            while flow.boundaries and flow.boundaries[0][0] <= target + 1e-9:
                boundary, index = flow.boundaries.pop(0)
                # Crossing time measured from the interval start, where
                # the flow had start_service bytes of cumulative service.
                finishes[index] = now + (boundary - start_service) / flow_rate
                flow.service = boundary  # exact, avoids drift
            # Remaining service in this interval past the last boundary.
            flow.service = max(flow.service, min(target, flow.arrived))
        now += horizon

        # Absorb arrivals that occur exactly now.
        while (
            pending_pos < len(pending)
            and pending[pending_pos][1].time <= now + 1e-15
        ):
            index, arrival = pending[pending_pos]
            flow = flows.setdefault(arrival.flow_id, _FlowState(weights[arrival.flow_id]))
            flow.arrived += arrival.size
            flow.boundaries.append((flow.arrived, index))
            pending_pos += 1

    if any(finish is None for finish in finishes):
        raise SimulationError("GPS reference left arrivals without a finish time")
    return [
        GPSFinish(arrival=arrival, finish=float(finish))
        for arrival, finish in zip(normalized, finishes)
    ]
