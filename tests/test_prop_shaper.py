"""Property-based tests: leaky-bucket regulation.

The defining property of the shaper (the paper's conformance mechanism):
whatever the input, the *output* satisfies the (sigma, rho) envelope of
eq. (2), no packet is lost, and order is preserved.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.burst import is_conformant_path
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.traffic.shaper import LeakyBucketShaper, TokenBucketMeter

# Arrival schedules: inter-arrival gaps and packet sizes.
schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.floats(min_value=1.0, max_value=900.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)

sigmas = st.floats(min_value=1_000.0, max_value=10_000.0, allow_nan=False)
rhos = st.floats(min_value=100.0, max_value=50_000.0, allow_nan=False)


class Recorder:
    def __init__(self, clock):
        self.clock = clock
        self.packets = []

    def receive(self, packet):
        self.packets.append((self.clock(), packet))


def run_shaper(schedule, sigma, rho):
    sim = Simulator()
    sink = Recorder(lambda: sim.now)
    shaper = LeakyBucketShaper(sim, sigma, rho, sink)
    time = 0.0
    sent = []
    for gap, size in schedule:
        time += gap
        packet = Packet(0, size, time)
        sent.append(packet)
        sim.schedule_at(time, shaper.receive, packet)
    sim.run()
    return sent, sink.packets


class TestShaperProperties:
    @given(schedule=schedules, sigma=sigmas, rho=rhos)
    @settings(max_examples=80, deadline=None)
    def test_output_is_conformant(self, schedule, sigma, rho):
        _, out = run_shaper(schedule, sigma, rho)
        meter = TokenBucketMeter(sigma + 1.0, rho)  # epsilon for float slack
        for time, packet in out:
            assert meter.observe(time, packet.size)

    @given(schedule=schedules, sigma=sigmas, rho=rhos)
    @settings(max_examples=80, deadline=None)
    def test_no_loss_and_order_preserved(self, schedule, sigma, rho):
        sent, out = run_shaper(schedule, sigma, rho)
        assert [packet for _, packet in out] == sent

    @given(schedule=schedules, sigma=sigmas, rho=rhos)
    @settings(max_examples=80, deadline=None)
    def test_packets_never_leave_early(self, schedule, sigma, rho):
        _, out = run_shaper(schedule, sigma, rho)
        for time, packet in out:
            assert time >= packet.created - 1e-9

    @given(schedule=schedules, sigma=sigmas, rho=rhos)
    @settings(max_examples=40, deadline=None)
    def test_cumulative_output_path_conformant(self, schedule, sigma, rho):
        # Check via the analysis module too: the cumulative byte path of
        # the output satisfies eq. (2).
        _, out = run_shaper(schedule, sigma, rho)
        cumulative = 0.0
        path = []
        for time, packet in out:
            cumulative += packet.size
            path.append((time, cumulative))
        if path:
            assert is_conformant_path(path, sigma + 1.0, rho, tolerance=1e-3)


class TestMeterProperties:
    @given(schedule=schedules, sigma=sigmas, rho=rhos)
    @settings(max_examples=80, deadline=None)
    def test_burst_potential_bounded_by_sigma(self, schedule, sigma, rho):
        meter = TokenBucketMeter(sigma, rho)
        time = 0.0
        for gap, size in schedule:
            time += gap
            meter.observe(time, size)
            assert meter.burst_potential(time) <= sigma + 1e-9

    @given(schedule=schedules, sigma=sigmas, rho=rhos)
    @settings(max_examples=80, deadline=None)
    def test_conformant_iff_potential_covers_size(self, schedule, sigma, rho):
        meter = TokenBucketMeter(sigma, rho)
        reference = TokenBucketMeter(sigma, rho)
        time = 0.0
        for gap, size in schedule:
            time += gap
            potential = reference.burst_potential(time)
            conformant = meter.observe(time, size)
            assert conformant == (potential >= size - 1e-9)
            reference.observe(time, size)
