"""Failure injection: errors surface loudly and near their cause.

The library's stated policy (see ``repro.errors``) is that internal
inconsistencies raise immediately rather than corrupting results; these
tests inject faults and verify the blast radius.
"""

import pytest

from repro.core.occupancy import BufferManager
from repro.core.tail_drop import TailDropManager
from repro.errors import SimulationError
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort


class ExplodingManager(BufferManager):
    def _admits(self, flow_id, size):
        raise RuntimeError("boom")


class OveradmittingManager(BufferManager):
    """A buggy policy that ignores capacity."""

    def _admits(self, flow_id, size):
        return True


class TestEngineFaults:
    def test_callback_exception_propagates(self):
        sim = Simulator()
        sim.schedule_fast(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            sim.run()

    def test_clock_reflects_failing_event(self):
        sim = Simulator()
        sim.schedule_fast(2.5, lambda: 1 / 0)
        try:
            sim.run()
        except ZeroDivisionError:
            pass
        assert sim.now == 2.5

    def test_engine_usable_after_caught_exception(self):
        sim = Simulator()
        fired = []
        sim.schedule_fast(1.0, lambda: 1 / 0)
        sim.schedule_fast(2.0, fired.append, "later")
        try:
            sim.run()
        except ZeroDivisionError:
            pass
        sim.run()
        assert fired == ["later"]


class TestPortFaults:
    def test_manager_exception_propagates_from_receive(self):
        sim = Simulator()
        port = OutputPort(sim, 1000.0, FIFOScheduler(), ExplodingManager(1000.0))
        with pytest.raises(RuntimeError, match="boom"):
            port.receive(Packet(0, 500.0, 0.0))

    def test_overadmission_detected_at_the_buggy_policy(self):
        sim = Simulator()
        port = OutputPort(sim, 1000.0, FIFOScheduler(), OveradmittingManager(800.0))
        port.receive(Packet(0, 500.0, 0.0))
        with pytest.raises(SimulationError, match="beyond capacity"):
            port.receive(Packet(0, 500.0, 0.0))

    def test_zero_size_packet_rejected_loudly(self):
        sim = Simulator()
        port = OutputPort(sim, 1000.0, FIFOScheduler(), TailDropManager(1000.0))
        with pytest.raises(SimulationError):
            port.receive(Packet(0, 0.0, 0.0))

    def test_double_departure_detected(self):
        manager = TailDropManager(1000.0)
        manager.try_admit(0, 500.0)
        manager.on_depart(0, 500.0)
        with pytest.raises(SimulationError):
            manager.on_depart(0, 500.0)


class TestCollectorEdges:
    def test_departure_for_unseen_flow_creates_entry(self):
        collector = StatsCollector()
        collector.on_depart(7, 500.0, 0.01, 1.0)
        assert collector.flows[7].departed_packets == 1

    def test_subset_queries_ignore_unknown_flows(self):
        collector = StatsCollector()
        collector.on_offered(1, 500.0, 0.0)
        assert collector.loss_fraction([1, 999]) == 0.0
        assert collector.total_departed_bytes([999]) == 0.0
