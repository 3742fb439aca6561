"""Discrete-event simulation substrate: engine, packets, output port."""

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort

__all__ = ["Simulator", "Packet", "OutputPort"]
