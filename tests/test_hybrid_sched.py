"""Hybrid scheduler: WFQ across FIFO class queues."""

import pytest

from repro.errors import ConfigurationError
from repro.sched.hybrid import HybridScheduler, validate_grouping
from repro.sim.engine import Simulator
from repro.sim.packet import Packet


def make_hybrid(groups, rates, link_rate=1000.0):
    sim = Simulator()
    return sim, HybridScheduler(sim, link_rate, groups, rates)


def pkt(flow_id, size=100.0):
    return Packet(flow_id, size, 0.0)


class TestValidateGrouping:
    def test_maps_flows_to_classes(self):
        class_of = validate_grouping([[0, 1], [2]])
        assert class_of == {0: 0, 1: 0, 2: 1}

    def test_empty_grouping_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_grouping([])

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_grouping([[0], []])

    def test_duplicate_flow_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_grouping([[0, 1], [1]])


class TestConstruction:
    def test_rate_count_must_match_groups(self):
        with pytest.raises(ConfigurationError):
            make_hybrid([[0], [1]], [500.0])

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_class_rate_rejected(self, rate):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            make_hybrid([[0], [1]], [rate, 500.0])

    def test_unknown_flow_rejected_at_enqueue(self):
        _, hybrid = make_hybrid([[0], [1]], [500.0, 500.0])
        with pytest.raises(ConfigurationError):
            hybrid.enqueue(pkt(42))


class TestServiceOrder:
    def test_fifo_within_class(self):
        _, hybrid = make_hybrid([[0, 1]], [1000.0])
        a, b, c = pkt(0), pkt(1), pkt(0)
        for packet in (a, b, c):
            hybrid.enqueue(packet)
        assert hybrid.dequeue() is a
        assert hybrid.dequeue() is b
        assert hybrid.dequeue() is c

    def test_classes_share_by_rate(self):
        # Class rates 3:1 -> class 0 gets ~3 of every 4 transmissions.
        _, hybrid = make_hybrid([[0], [1]], [750.0, 250.0])
        for _ in range(8):
            hybrid.enqueue(pkt(0))
        for _ in range(8):
            hybrid.enqueue(pkt(1))
        first_four = [hybrid.dequeue().flow_id for _ in range(4)]
        assert first_four.count(0) == 3
        assert first_four.count(1) == 1

    def test_flows_in_same_class_share_its_fifo(self):
        _, hybrid = make_hybrid([[0, 1], [2]], [500.0, 500.0])
        hybrid.enqueue(pkt(0))
        hybrid.enqueue(pkt(1))
        assert hybrid.queue_length(0) == 2
        assert hybrid.queue_length(1) == 0


class TestAccounting:
    def test_len_and_backlog(self):
        _, hybrid = make_hybrid([[0], [1]], [500.0, 500.0])
        hybrid.enqueue(pkt(0, size=300.0))
        hybrid.enqueue(pkt(1, size=200.0))
        assert len(hybrid) == 2
        backlog = 500.0 - hybrid.dequeue().size  # enqueued minus dequeued bytes
        assert len(hybrid) == 1
        assert backlog == hybrid.dequeue().size
        assert len(hybrid) == 0

    def test_dequeue_empty_returns_none(self):
        _, hybrid = make_hybrid([[0]], [1000.0])
        assert hybrid.dequeue() is None

    def test_class_of_exposed(self):
        _, hybrid = make_hybrid([[0, 1], [2]], [500.0, 500.0])
        assert hybrid.class_of == {0: 0, 1: 0, 2: 1}
