"""Self-clocked fair queueing."""

import pytest

from repro.errors import ConfigurationError
from repro.sched.scfq import SCFQScheduler
from repro.sim.packet import Packet


def pkt(flow_id, size=100.0):
    return Packet(flow_id, size, 0.0)


class TestValidation:
    def test_empty_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            SCFQScheduler({})

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            SCFQScheduler({0: 0.0})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            SCFQScheduler({0: weight, 1: 1.0})

    def test_unknown_flow_rejected(self):
        scfq = SCFQScheduler({0: 1.0})
        with pytest.raises(ConfigurationError):
            scfq.enqueue(pkt(9))


class TestOrdering:
    def test_single_flow_is_fifo(self):
        scfq = SCFQScheduler({0: 1.0})
        packets = [pkt(0) for _ in range(4)]
        for packet in packets:
            scfq.enqueue(packet)
        assert [scfq.dequeue() for _ in range(4)] == packets

    def test_equal_weights_alternate(self):
        scfq = SCFQScheduler({0: 1.0, 1: 1.0})
        for _ in range(3):
            scfq.enqueue(pkt(0))
            scfq.enqueue(pkt(1))
        assert [scfq.dequeue().flow_id for _ in range(6)] == [0, 1, 0, 1, 0, 1]

    def test_weight_ratio_respected(self):
        scfq = SCFQScheduler({0: 3.0, 1: 1.0})
        for _ in range(12):
            scfq.enqueue(pkt(0))
        for _ in range(12):
            scfq.enqueue(pkt(1))
        first_eight = [scfq.dequeue().flow_id for _ in range(8)]
        assert first_eight.count(0) == 6

    def test_dequeue_empty_returns_none(self):
        assert SCFQScheduler({0: 1.0}).dequeue() is None


class TestSelfClocking:
    def test_virtual_time_is_serving_packets_tag(self):
        scfq = SCFQScheduler({0: 100.0})
        scfq.enqueue(pkt(0, size=100.0))
        scfq.enqueue(pkt(0, size=100.0))
        scfq.dequeue()
        # First packet's tag: 100/100 = 1.0
        assert scfq.virtual_time == pytest.approx(1.0)

    def test_late_flow_starts_from_current_virtual_time(self):
        # A flow arriving mid-busy-period is tagged from V, so it cannot
        # claim bandwidth for the time it was idle.
        scfq = SCFQScheduler({0: 1.0, 1: 1.0})
        for _ in range(10):
            scfq.enqueue(pkt(0))
        for _ in range(5):
            scfq.dequeue()
        scfq.enqueue(pkt(1))
        # Flow 1's tag = V + 100; flow 0's next tag is 600 > V + 100 = 600?
        # Equal weights: flow 0 is at tag 600, flow 1 at 500 + 100 = 600.
        # Tie broken by sequence -> flow 0's packet was enqueued first.
        flows = [scfq.dequeue().flow_id for _ in range(6)]
        assert 1 in flows  # the latecomer is served within the window
        assert flows.count(0) == 5

    def test_busy_period_reset(self):
        scfq = SCFQScheduler({0: 1.0})
        scfq.enqueue(pkt(0))
        scfq.dequeue()
        assert scfq.virtual_time == 0.0  # reset when the queue drained

    def test_tag_lapses_even_if_the_flow_sat_a_busy_period_out(self):
        scfq = SCFQScheduler({0: 1.0, 1: 1.0})
        scfq.enqueue(pkt(0, size=900.0))  # period 1 leaves flow 0 a large tag
        scfq.dequeue()
        scfq.enqueue(pkt(1))  # period 2: flow 0 absent
        scfq.dequeue()
        scfq.enqueue(pkt(1, size=200.0))  # period 3: both, flow 1 first
        scfq.enqueue(pkt(0, size=100.0))
        # Flow 0 is tagged 0 + 100, not 900 + 100: it overtakes flow 1.
        assert [scfq.dequeue().flow_id for _ in range(2)] == [0, 1]

    def test_drain_does_not_walk_the_flow_table(self):
        # An idle link dequeues every packet it enqueues, so a reset that
        # visits all flows is O(flows) per packet at light load.
        scfq = SCFQScheduler({flow_id: 1.0 for flow_id in range(64)})
        scfq._flows = NoWalkDict(scfq._flows)
        for flow_id in range(64):
            scfq.enqueue(pkt(flow_id))
            assert scfq.dequeue().flow_id == flow_id


class NoWalkDict(dict):
    """A flow table that may be indexed but never iterated."""

    def _refuse(self):
        raise AssertionError("scheduler walked every flow")

    __iter__ = keys = values = items = _refuse


class TestAccounting:
    def test_len_and_backlog(self):
        scfq = SCFQScheduler({0: 1.0, 1: 1.0})
        scfq.enqueue(pkt(0, size=300.0))
        scfq.enqueue(pkt(1, size=200.0))
        assert len(scfq) == 2
        backlog = 500.0 - scfq.dequeue().size  # enqueued minus dequeued bytes
        assert len(scfq) == 1
        assert backlog == scfq.dequeue().size
        assert len(scfq) == 0

    def test_queue_length(self):
        scfq = SCFQScheduler({0: 1.0, 1: 1.0})
        scfq.enqueue(pkt(0))
        scfq.enqueue(pkt(0))
        assert scfq.queue_length(0) == 2
        assert scfq.queue_length(1) == 0

    def test_conservation(self):
        scfq = SCFQScheduler({0: 2.0, 1: 1.0})
        sent = [pkt(i % 2, 50.0 + i) for i in range(20)]
        for packet in sent:
            scfq.enqueue(packet)
        served = [scfq.dequeue() for _ in range(20)]
        assert sorted(p.seq for p in served) == sorted(p.seq for p in sent)
        assert scfq.dequeue() is None
