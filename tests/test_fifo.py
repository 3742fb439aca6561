"""FIFO scheduler semantics."""

from repro.sched.fifo import FIFOScheduler
from repro.sim.packet import Packet


def pkt(flow_id=0, size=500.0):
    return Packet(flow_id, size, 0.0)


class TestFIFOOrder:
    def test_serves_in_arrival_order(self):
        fifo = FIFOScheduler()
        packets = [pkt(i) for i in range(5)]
        for packet in packets:
            fifo.enqueue(packet)
        served = [fifo.dequeue() for _ in range(5)]
        assert served == packets

    def test_interleaved_flows_keep_global_order(self):
        fifo = FIFOScheduler()
        a, b, c = pkt(1), pkt(2), pkt(1)
        for packet in (a, b, c):
            fifo.enqueue(packet)
        assert fifo.dequeue() is a
        assert fifo.dequeue() is b
        assert fifo.dequeue() is c

    def test_dequeue_empty_returns_none(self):
        assert FIFOScheduler().dequeue() is None


class TestFIFOAccounting:
    def test_len_tracks_queue(self):
        fifo = FIFOScheduler()
        assert len(fifo) == 0
        fifo.enqueue(pkt())
        fifo.enqueue(pkt())
        assert len(fifo) == 2
        fifo.dequeue()
        assert len(fifo) == 1

    def test_backlog_bytes(self):
        # The backlog is enqueued minus dequeued bytes; the scheduler
        # keeps no byte count of its own.
        fifo = FIFOScheduler()
        fifo.enqueue(pkt(size=300.0))
        fifo.enqueue(pkt(size=200.0))
        backlog = 500.0 - fifo.dequeue().size
        assert backlog == 200.0
        assert len(fifo) == 1

    def test_backlog_returns_to_zero(self):
        fifo = FIFOScheduler()
        fifo.enqueue(pkt(size=300.0))
        assert 300.0 - fifo.dequeue().size == 0.0
        assert len(fifo) == 0
        assert fifo.dequeue() is None
