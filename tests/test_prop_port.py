"""Property-based tests: output-port conservation laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_threshold import DynamicThresholdManager
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.tail_drop import TailDropManager
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort

arrivals_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02, allow_nan=False),  # gap
        st.integers(min_value=0, max_value=3),                      # flow
        st.floats(min_value=10.0, max_value=1500.0, allow_nan=False),
    ),
    min_size=1,
    max_size=100,
)

manager_factories = st.sampled_from([
    lambda: TailDropManager(5_000.0),
    lambda: FixedThresholdManager(5_000.0, {0: 2_000.0, 1: 1_500.0, 2: 1_000.0,
                                            3: 500.0}),
    lambda: DynamicThresholdManager(5_000.0, alpha=1.0),
])

scheduler_factories = st.sampled_from(["fifo", "wfq"])


def run_port(arrivals, manager, scheduler_kind):
    sim = Simulator()
    if scheduler_kind == "fifo":
        scheduler = FIFOScheduler()
    else:
        scheduler = WFQScheduler(sim, 100_000.0, {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})
    collector = StatsCollector()
    port = OutputPort(sim, 100_000.0, scheduler, manager, collector)
    time = 0.0
    for gap, flow_id, size in arrivals:
        time += gap
        sim.schedule_at(time, port.receive, Packet(flow_id, size, time))
    sim.run()  # drain everything
    return port, collector


class TestConservation:
    @given(
        arrivals=arrivals_strategy,
        make_manager=manager_factories,
        scheduler_kind=scheduler_factories,
    )
    @settings(max_examples=60, deadline=None)
    def test_offered_equals_dropped_plus_departed(self, arrivals, make_manager,
                                                  scheduler_kind):
        port, collector = run_port(arrivals, make_manager(), scheduler_kind)
        for stats in collector.flows.values():
            assert stats.offered_packets == (
                stats.dropped_packets + stats.departed_packets
            )
            assert abs(
                stats.offered_bytes - stats.dropped_bytes - stats.departed_bytes
            ) < 1e-6

    @given(
        arrivals=arrivals_strategy,
        make_manager=manager_factories,
        scheduler_kind=scheduler_factories,
    )
    @settings(max_examples=60, deadline=None)
    def test_buffer_empty_after_drain(self, arrivals, make_manager, scheduler_kind):
        port, _ = run_port(arrivals, make_manager(), scheduler_kind)
        assert port.backlog_packets == 0
        assert not port.busy
        assert abs(port.manager.total_occupancy) < 1e-6

    @given(
        arrivals=arrivals_strategy,
        make_manager=manager_factories,
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_departures_in_admission_order(self, arrivals, make_manager):
        sim = Simulator()
        collector = StatsCollector()
        departed = []

        # OutputPort is slotted, so tracing hooks go in a subclass rather
        # than instance monkeypatching.
        class TracedPort(OutputPort):
            def _finish_transmission(self, packet):
                departed.append(packet.seq)
                super()._finish_transmission(packet)

        port = TracedPort(sim, 100_000.0, FIFOScheduler(), make_manager(), collector)
        time = 0.0
        admitted = []
        for gap, flow_id, size in arrivals:
            time += gap
            packet = Packet(flow_id, size, time)

            def offer(packet=packet):
                if port.receive(packet):
                    admitted.append(packet.seq)

            sim.schedule_at(time, offer)
        sim.run()
        assert departed == admitted

    @given(
        arrivals=arrivals_strategy,
        make_manager=manager_factories,
        scheduler_kind=scheduler_factories,
    )
    @settings(max_examples=40, deadline=None)
    def test_delays_nonnegative_and_bounded(self, arrivals, make_manager,
                                            scheduler_kind):
        port, collector = run_port(arrivals, make_manager(), scheduler_kind)
        if scheduler_kind == "fifo":
            # Any admitted packet waits at most buffer/rate + its own tx.
            bound = 5_000.0 / 100_000.0 + 1500.0 / 100_000.0
        else:
            # WFQ serves by virtual finish time, so a minimum-weight
            # flow's packet can wait while every other flow takes its
            # larger share of the backlog drain: the queueing term
            # scales by total/min weight (10/1 here).
            bound = (5_000.0 + 1500.0) * 10.0 / 100_000.0 + 1500.0 / 100_000.0
        for stats in collector.flows.values():
            assert stats.delay_max <= bound + 1e-9
            assert stats.delay_sum >= 0.0
