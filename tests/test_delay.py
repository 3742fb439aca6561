"""Delay-bound analysis (Section 1's scalability argument)."""

import pytest

from repro.analysis.delay import (
    OC48,
    max_buffer_for_delay,
    worst_case_fifo_delay,
)
from repro.core.tail_drop import TailDropManager
from repro.errors import ConfigurationError
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.traffic.sources import GreedySource
from repro.units import mbytes


class TestWorstCaseDelay:
    def test_papers_oc48_example(self):
        # "the worst case delay caused by a 1MByte buffer feeding an
        # OC-48 link (2.4Gbits/sec) is less than 3.5msec"
        delay = worst_case_fifo_delay(mbytes(1.0), OC48)
        assert delay < 3.5e-3
        assert delay > 3.0e-3

    def test_scales_linearly_with_buffer(self):
        assert worst_case_fifo_delay(2000.0, 1000.0) == pytest.approx(
            2 * worst_case_fifo_delay(1000.0, 1000.0)
        )

    def test_inverse_with_link_rate(self):
        assert worst_case_fifo_delay(1000.0, 2000.0) == pytest.approx(
            0.5 * worst_case_fifo_delay(1000.0, 1000.0)
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            worst_case_fifo_delay(0.0, 1000.0)
        with pytest.raises(ConfigurationError):
            worst_case_fifo_delay(1000.0, 0.0)


class TestInverseDesignRule:
    def test_roundtrip(self):
        buffer_size = max_buffer_for_delay(0.005, OC48)
        assert worst_case_fifo_delay(buffer_size, OC48) == pytest.approx(0.005)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            max_buffer_for_delay(0.0, 1000.0)


class TestBoundHoldsInSimulation:
    def test_measured_delay_never_exceeds_bound(self):
        # Saturate a small buffer with a greedy source and verify every
        # delivered packet met the B/R bound (plus one transmission time).
        link = 100_000.0
        buffer_size = 10_000.0
        sim = Simulator()
        collector = StatsCollector()
        port = OutputPort(sim, link, FIFOScheduler(), TailDropManager(buffer_size),
                          collector)
        GreedySource(sim, 0, link, port, packet_size=500.0, until=10.0)
        sim.run(until=12.0)
        bound = worst_case_fifo_delay(buffer_size, link) + 500.0 / link
        assert collector.flows[0].delay_max <= bound + 1e-9
        assert collector.flows[0].departed_packets > 0
