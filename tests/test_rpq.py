"""Rotating Priority Queues scheduler."""

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.sched.rpq import RPQScheduler
from repro.sim.packet import Packet


def make_rpq(class_of=None, delta=1.0):
    clock = SimpleNamespace(now=0.0)
    if class_of is None:
        class_of = {0: 0, 1: 1, 2: 2}
    return clock, RPQScheduler(clock, delta, class_of)


def pkt(flow_id, size=100.0):
    return Packet(flow_id, size, 0.0)


class TestValidation:
    def test_bad_delta(self):
        with pytest.raises(ConfigurationError):
            RPQScheduler(SimpleNamespace(now=0.0), 0.0, {0: 0})

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            RPQScheduler(SimpleNamespace(now=0.0), delta, {0: 0})

    def test_negative_class(self):
        with pytest.raises(ConfigurationError):
            RPQScheduler(SimpleNamespace(now=0.0), 1.0, {0: -1})

    def test_unknown_flow_rejected_without_default(self):
        _, rpq = make_rpq()
        with pytest.raises(ConfigurationError):
            rpq.enqueue(pkt(42))


class TestPriorityOrder:
    def test_urgent_class_served_first(self):
        _, rpq = make_rpq()
        low = pkt(2)   # class 2
        high = pkt(0)  # class 0
        rpq.enqueue(low)
        rpq.enqueue(high)
        assert rpq.dequeue() is high
        assert rpq.dequeue() is low

    def test_fifo_within_class(self):
        _, rpq = make_rpq()
        first, second = pkt(0), pkt(0)
        rpq.enqueue(first)
        rpq.enqueue(second)
        assert rpq.dequeue() is first
        assert rpq.dequeue() is second

    def test_rotation_promotes_old_packets(self):
        # A class-2 packet from epoch 0 outranks a class-0 packet from
        # epoch 3: 0 + 2 < 3 + 0.
        clock, rpq = make_rpq()
        old_low = pkt(2)
        rpq.enqueue(old_low)
        clock.now = 3.0
        fresh_high = pkt(0)
        rpq.enqueue(fresh_high)
        assert rpq.dequeue() is old_low

    def test_same_bucket_merges_across_epochs(self):
        # Class-1 packet in epoch 0 and class-0 packet in epoch 1 share
        # bucket 1 and are served FIFO.
        clock, rpq = make_rpq()
        first = pkt(1)
        rpq.enqueue(first)
        clock.now = 1.0
        second = pkt(0)
        rpq.enqueue(second)
        assert rpq.dequeue() is first
        assert rpq.dequeue() is second

    def test_granularity_delta(self):
        # With delta = 10, clock 3.0 is still epoch 0.
        clock, rpq = make_rpq(delta=10.0)
        rpq.enqueue(pkt(1))          # bucket 1
        clock.now = 3.0
        rpq.enqueue(pkt(0))          # still epoch 0 -> bucket 0
        assert rpq.dequeue().flow_id == 0


class TestAccounting:
    def test_len_and_backlog(self):
        _, rpq = make_rpq()
        rpq.enqueue(pkt(0, size=300.0))
        rpq.enqueue(pkt(1, size=200.0))
        assert len(rpq) == 2
        backlog = 500.0 - rpq.dequeue().size  # enqueued minus dequeued bytes
        assert len(rpq) == 1
        assert backlog == rpq.dequeue().size
        assert len(rpq) == 0

    def test_dequeue_empty(self):
        _, rpq = make_rpq()
        assert rpq.dequeue() is None

    def test_bucket_count(self):
        clock, rpq = make_rpq()
        rpq.enqueue(pkt(0))
        rpq.enqueue(pkt(2))
        assert rpq.bucket_count() == 2
        rpq.dequeue()
        assert rpq.bucket_count() == 1

    def test_conservation(self):
        clock, rpq = make_rpq({0: 0, 1: 1, 2: 2, 3: 1, 4: 1})
        sent = []
        for i in range(30):
            clock.now = i * 0.3
            packet = pkt(i % 5, size=50.0 + i)
            sent.append(packet)
            rpq.enqueue(packet)
        served = []
        while True:
            packet = rpq.dequeue()
            if packet is None:
                break
            served.append(packet)
        assert sorted(p.seq for p in served) == sorted(p.seq for p in sent)
