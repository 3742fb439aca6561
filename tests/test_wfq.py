"""WFQ scheduler: virtual time, ordering, fairness."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet


def make_wfq(weights, rate=1000.0):
    sim = Simulator()
    return sim, WFQScheduler(sim, rate, weights)


def pkt(flow_id, size=100.0):
    return Packet(flow_id, size, 0.0)


class TestValidation:
    def test_empty_weights_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            WFQScheduler(sim, 1000.0, {})

    def test_non_positive_weight_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            WFQScheduler(sim, 1000.0, {0: 0.0})

    def test_non_positive_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            WFQScheduler(sim, -1.0, {0: 1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["link_rate", "weight"])
    def test_non_finite_parameters_rejected(self, field, bad):
        # A NaN weight's finish tags compare false both ways, so the heap
        # layout, not the weight, would set the service order.
        rate, weight = (bad, 100.0) if field == "link_rate" else (1000.0, bad)
        with pytest.raises(ConfigurationError, match="positive and finite"):
            WFQScheduler(Simulator(), rate, {1: weight, 2: 100.0})

    def test_unknown_flow_rejected(self):
        _, wfq = make_wfq({0: 1.0})
        with pytest.raises(ConfigurationError):
            wfq.enqueue(pkt(99))


class TestOrdering:
    def test_single_flow_is_fifo(self):
        _, wfq = make_wfq({0: 1.0})
        packets = [pkt(0) for _ in range(4)]
        for packet in packets:
            wfq.enqueue(packet)
        assert [wfq.dequeue() for _ in range(4)] == packets

    def test_equal_weights_alternate_between_backlogged_flows(self):
        _, wfq = make_wfq({0: 1.0, 1: 1.0})
        for _ in range(3):
            wfq.enqueue(pkt(0))
            wfq.enqueue(pkt(1))
        flows = [wfq.dequeue().flow_id for _ in range(6)]
        # Same finish times alternate by arrival (seq) order: 0,1,0,1,...
        assert flows == [0, 1, 0, 1, 0, 1]

    def test_heavier_weight_served_more_often(self):
        # Weight 3:1 -> in any window flow 0 sends ~3x the packets.
        _, wfq = make_wfq({0: 3.0, 1: 1.0})
        for _ in range(12):
            wfq.enqueue(pkt(0))
        for _ in range(12):
            wfq.enqueue(pkt(1))
        first_eight = [wfq.dequeue().flow_id for _ in range(8)]
        assert first_eight.count(0) == 6
        assert first_eight.count(1) == 2

    def test_smaller_packets_finish_earlier_at_equal_weight(self):
        _, wfq = make_wfq({0: 1.0, 1: 1.0})
        big = Packet(0, 1000.0, 0.0)
        small = Packet(1, 100.0, 0.0)
        wfq.enqueue(big)
        wfq.enqueue(small)
        assert wfq.dequeue() is small
        assert wfq.dequeue() is big

    def test_dequeue_empty_returns_none(self):
        _, wfq = make_wfq({0: 1.0})
        assert wfq.dequeue() is None


class TestVirtualTime:
    def test_virtual_time_frozen_when_idle(self):
        sim, wfq = make_wfq({0: 1.0})
        v0 = wfq.virtual_time
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert wfq.virtual_time == v0

    def test_virtual_time_advances_while_backlogged(self):
        sim, wfq = make_wfq({0: 500.0}, rate=1000.0)
        wfq.enqueue(pkt(0))
        v0 = wfq.virtual_time
        sim.schedule(1.0, lambda: None)
        sim.run()
        # Only flow 0 (weight 500) backlogged: dV/dt = R / 500 = 2.
        assert wfq.virtual_time == pytest.approx(v0 + 2.0)

    def test_late_arrival_does_not_inherit_stale_finish(self):
        # A flow that was idle for a long time starts from current V, so
        # it cannot claim service "owed" from its idle period.
        sim, wfq = make_wfq({0: 1.0, 1: 1.0}, rate=1000.0)
        wfq.enqueue(pkt(0, size=100.0))
        assert wfq.dequeue().flow_id == 0
        sim.schedule(10.0, lambda: None)
        sim.run()
        wfq.enqueue(pkt(0, size=100.0))
        wfq.enqueue(pkt(1, size=100.0))
        assert wfq.dequeue().flow_id == 0  # arrival order, not stale credit

    def test_stamp_lapses_even_if_the_flow_sat_a_busy_period_out(self):
        _, wfq = make_wfq({0: 1.0, 1: 1.0})
        wfq.enqueue(pkt(0, size=900.0))  # period 1 leaves flow 0 a large stamp
        wfq.dequeue()
        wfq.enqueue(pkt(1))  # period 2: flow 0 absent
        wfq.dequeue()
        wfq.enqueue(pkt(1, size=200.0))  # period 3: both, flow 1 first
        wfq.enqueue(pkt(0, size=100.0))
        # Flow 0 is stamped 0 + 100, not 900 + 100: it overtakes flow 1.
        assert [wfq.dequeue().flow_id for _ in range(2)] == [0, 1]

    def test_drain_does_not_walk_the_flow_table(self):
        # An idle link dequeues every packet it enqueues, so a reset that
        # visits all flows is O(flows) per packet at light load.
        _, wfq = make_wfq({flow_id: 1.0 for flow_id in range(64)})
        wfq._flows = NoWalkDict(wfq._flows)
        for flow_id in range(64):
            wfq.enqueue(pkt(flow_id))
            assert wfq.dequeue().flow_id == flow_id


class NoWalkDict(dict):
    """A flow table that may be indexed but never iterated."""

    def _refuse(self):
        raise AssertionError("scheduler walked every flow")

    __iter__ = keys = values = items = _refuse


class TestAccounting:
    def test_len_and_backlog(self):
        _, wfq = make_wfq({0: 1.0, 1: 1.0})
        wfq.enqueue(pkt(0, size=300.0))
        wfq.enqueue(pkt(1, size=200.0))
        assert len(wfq) == 2
        backlog = 500.0 - wfq.dequeue().size  # enqueued minus dequeued bytes
        assert len(wfq) == 1
        assert backlog == wfq.dequeue().size
        assert len(wfq) == 0

    def test_queue_length_per_flow(self):
        _, wfq = make_wfq({0: 1.0, 1: 1.0})
        wfq.enqueue(pkt(0))
        wfq.enqueue(pkt(0))
        wfq.enqueue(pkt(1))
        assert wfq.queue_length(0) == 2
        assert wfq.queue_length(1) == 1


class TestClassifier:
    def test_classifier_maps_flows_to_classes(self):
        sim = Simulator()
        wfq = WFQScheduler(sim, 1000.0, {0: 1.0, 1: 1.0}, class_of={4: 0, 7: 1})
        wfq.enqueue(pkt(4))  # class 0
        wfq.enqueue(pkt(7))  # class 1
        assert wfq.queue_length(0) == 1
        assert wfq.queue_length(1) == 1
