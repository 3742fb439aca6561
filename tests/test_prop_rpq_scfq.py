"""Property-based tests: RPQ and SCFQ conservation and ordering."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.rpq import RPQScheduler
from repro.sched.scfq import SCFQScheduler
from repro.sim.packet import Packet

arrivals = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.2, allow_nan=False),   # gap
        st.integers(min_value=0, max_value=3),                      # flow
        st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)


class TestRPQProperties:
    @given(arrivals=arrivals, delta=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_conservation_and_fifo_within_flow(self, arrivals, delta):
        clock = SimpleNamespace(now=0.0)
        rpq = RPQScheduler(clock, delta, {0: 0, 1: 1, 2: 2, 3: 3})
        sent = []
        for gap, flow_id, size in arrivals:
            clock.now += gap
            packet = Packet(flow_id, size, clock.now)
            sent.append(packet)
            rpq.enqueue(packet)
        served = []
        while True:
            packet = rpq.dequeue()
            if packet is None:
                break
            served.append(packet)
        assert sorted(p.seq for p in served) == sorted(p.seq for p in sent)
        # FIFO within each flow (same class + monotone epochs => stable).
        for flow_id in range(4):
            seqs = [p.seq for p in served if p.flow_id == flow_id]
            assert seqs == sorted(seqs)

    @given(arrivals=arrivals, delta=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_served_in_bucket_order(self, arrivals, delta):
        clock = SimpleNamespace(now=0.0)
        class_of = {0: 0, 1: 1, 2: 2, 3: 3}
        rpq = RPQScheduler(clock, delta, class_of)
        bucket_of = {}
        for gap, flow_id, size in arrivals:
            clock.now += gap
            packet = Packet(flow_id, size, clock.now)
            bucket_of[packet.seq] = int(clock.now / delta) + class_of[flow_id]
            rpq.enqueue(packet)
        served_buckets = []
        while True:
            packet = rpq.dequeue()
            if packet is None:
                break
            served_buckets.append(bucket_of[packet.seq])
        assert served_buckets == sorted(served_buckets)


class TestSCFQProperties:
    @given(arrivals=arrivals)
    @settings(max_examples=80, deadline=None)
    def test_conservation(self, arrivals):
        scfq = SCFQScheduler({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})
        sent = []
        for _gap, flow_id, size in arrivals:
            packet = Packet(flow_id, size, 0.0)
            sent.append(packet)
            scfq.enqueue(packet)
        served = []
        while True:
            packet = scfq.dequeue()
            if packet is None:
                break
            served.append(packet)
        assert sorted(p.seq for p in served) == sorted(p.seq for p in sent)
        assert len(scfq) == 0

    @given(arrivals=arrivals)
    @settings(max_examples=80, deadline=None)
    def test_per_flow_order_preserved(self, arrivals):
        scfq = SCFQScheduler({0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})
        for _gap, flow_id, size in arrivals:
            scfq.enqueue(Packet(flow_id, size, 0.0))
        last_seq = {}
        while True:
            packet = scfq.dequeue()
            if packet is None:
                break
            if packet.flow_id in last_seq:
                assert packet.seq > last_seq[packet.flow_id]
            last_seq[packet.flow_id] = packet.seq

    @given(
        weight=st.floats(min_value=1.0, max_value=16.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_backlogged_service_tracks_weights(self, weight):
        scfq = SCFQScheduler({0: weight, 1: 1.0})
        for _ in range(200):
            scfq.enqueue(Packet(0, 100.0, 0.0))
            scfq.enqueue(Packet(1, 100.0, 0.0))
        counts = {0: 0, 1: 0}
        for _ in range(100):
            counts[scfq.dequeue().flow_id] += 1
        assert counts[1] > 0
        observed = counts[0] / counts[1]
        assert abs(observed - weight) / weight < 0.25
