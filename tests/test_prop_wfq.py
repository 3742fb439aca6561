"""Property-based tests: WFQ fairness and conservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet

weights_strategy = st.lists(
    st.floats(min_value=10.0, max_value=1000.0, allow_nan=False),
    min_size=2,
    max_size=5,
)

arrivals_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)


def build(weights):
    sim = Simulator()
    wfq = WFQScheduler(sim, 10_000.0, {i: w for i, w in enumerate(weights)})
    return sim, wfq


class TestConservation:
    @given(weights=weights_strategy, arrivals=arrivals_strategy)
    @settings(max_examples=80, deadline=None)
    def test_every_packet_served_exactly_once(self, weights, arrivals):
        _, wfq = build(weights)
        sent = []
        backlog = 0.0  # enqueued minus dequeued bytes
        for flow_index, size in arrivals:
            packet = Packet(flow_index % len(weights), size, 0.0)
            sent.append(packet)
            wfq.enqueue(packet)
            backlog += size
        served = []
        while True:
            packet = wfq.dequeue()
            if packet is None:
                break
            served.append(packet)
            backlog -= packet.size
        assert sorted(p.seq for p in served) == sorted(p.seq for p in sent)
        assert len(wfq) == 0
        assert abs(backlog) < 1e-6

    @given(weights=weights_strategy, arrivals=arrivals_strategy)
    @settings(max_examples=80, deadline=None)
    def test_per_flow_order_preserved(self, weights, arrivals):
        _, wfq = build(weights)
        per_flow_in = {}
        for flow_index, size in arrivals:
            flow_id = flow_index % len(weights)
            packet = Packet(flow_id, size, 0.0)
            per_flow_in.setdefault(flow_id, []).append(packet.seq)
            wfq.enqueue(packet)
        per_flow_out = {}
        while True:
            packet = wfq.dequeue()
            if packet is None:
                break
            per_flow_out.setdefault(packet.flow_id, []).append(packet.seq)
        assert per_flow_out == per_flow_in


class TestFairness:
    @given(
        weight_ratio=st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_backlogged_flows_served_in_weight_ratio(self, weight_ratio):
        # Two permanently backlogged flows with equal packet sizes: over
        # any long service prefix, service counts track the weight ratio.
        _, wfq = build([100.0 * weight_ratio, 100.0])
        for _ in range(400):
            wfq.enqueue(Packet(0, 100.0, 0.0))
            wfq.enqueue(Packet(1, 100.0, 0.0))
        counts = {0: 0, 1: 0}
        for _ in range(200):
            counts[wfq.dequeue().flow_id] += 1
        assert counts[1] > 0
        observed = counts[0] / counts[1]
        assert abs(observed - weight_ratio) / weight_ratio < 0.15

    @given(
        sizes=st.lists(
            st.floats(min_value=50.0, max_value=500.0, allow_nan=False),
            min_size=20, max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_equal_weights_serve_equal_bytes(self, sizes):
        # Two flows, identical packet sequences, equal weights: after any
        # even number of services the byte counts differ by at most one
        # maximum packet.
        _, wfq = build([100.0, 100.0])
        for size in sizes:
            wfq.enqueue(Packet(0, size, 0.0))
            wfq.enqueue(Packet(1, size, 0.0))
        served_bytes = {0: 0.0, 1: 0.0}
        for _ in range(len(sizes)):  # half the packets
            packet = wfq.dequeue()
            served_bytes[packet.flow_id] += packet.size
        assert abs(served_bytes[0] - served_bytes[1]) <= 500.0 + 1e-6
