"""Property-based tests: output-port conservation laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_threshold import DynamicThresholdManager
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.tail_drop import TailDropManager
from repro.metrics.collector import FlowStats, StatsCollector
from repro.obs.events import DepartEvent, DropEvent, EnqueueEvent
from repro.obs.sink import RingSink
from repro.sched.fifo import FIFOScheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from tests.conftest import examples

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


def run_port(arrivals, manager, scheduler_kind, collector=None, sink=None):
    sim = Simulator()
    if scheduler_kind == "fifo":
        scheduler = FIFOScheduler()
    else:
        scheduler = WFQScheduler(sim, 100_000.0, {0: 1.0, 1: 2.0, 2: 3.0, 3: 4.0})
    if collector is None:
        collector = StatsCollector()
    port = OutputPort(sim, 100_000.0, scheduler, manager, collector)
    if sink is not None:
        port.attach_trace(sink)
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
        assert abs(port.manager.total_occupancy) < 1e-6

    @given(
        arrivals=arrivals_strategy,
        make_manager=manager_factories,
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_departures_in_admission_order(self, arrivals, make_manager):
        sim = Simulator()
        collector = StatsCollector()
        sink = RingSink()
        port = OutputPort(sim, 100_000.0, FIFOScheduler(), make_manager(), collector)
        port.attach_trace(sink)
        time = 0.0
        admitted = []
        for gap, flow_id, size in arrivals:
            time += gap
            packet = Packet(flow_id, size, time)

            def offer(packet=packet):
                if port.receive(packet):
                    admitted.append((packet.flow_id, packet.size, sim.now))

            sim.schedule_at(time, offer)
        sim.run()
        departs = [event for event in sink.events() if isinstance(event, DepartEvent)]
        assert [(e.flow_id, e.size) for e in departs] == [a[:2] for a in admitted]
        # Each departure's delay leads back to its own admission instant.
        assert [e.time - e.delay for e in departs] == pytest.approx(
            [a[2] for a in admitted], abs=1e-12
        )

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


def bits(stats: FlowStats) -> tuple:
    """The eight counters, floats as their exact hex spelling."""
    return (
        stats.offered_packets,
        stats.offered_bytes.hex(),
        stats.dropped_packets,
        stats.dropped_bytes.hex(),
        stats.departed_packets,
        stats.departed_bytes.hex(),
        stats.delay_sum.hex(),
        stats.delay_max.hex(),
    )


def histogram_bits(histogram) -> tuple:
    return (
        tuple(histogram._counts),
        histogram.count,
        float(histogram.total).hex(),
        float(histogram.max_value).hex(),
    )


class TestPortCountsLikeCollector:
    """The port counts its hop's ``FlowStats`` inline; the collector's
    ``on_offered``/``on_drop``/``on_depart`` are the reference.  Fed the
    port's own trace, they must produce the same records to the bit."""

    @given(
        arrivals=arrivals_strategy,
        make_manager=manager_factories,
        scheduler_kind=scheduler_factories,
        warmup=st.floats(min_value=0.0, max_value=1.0),
        delay_histograms=st.booleans(),
    )
    @settings(max_examples=examples(60), deadline=None)
    def test_flow_stats_equal_collector_fed_from_the_trace(
        self, arrivals, make_manager, scheduler_kind, warmup, delay_histograms
    ):
        collector = StatsCollector(warmup=warmup, delay_histograms=delay_histograms)
        sink = RingSink()
        run_port(arrivals, make_manager(), scheduler_kind, collector, sink)
        reference = StatsCollector(warmup=warmup, delay_histograms=delay_histograms)
        for event in sink.events():
            if isinstance(event, (EnqueueEvent, DropEvent)):
                reference.on_offered(event.flow_id, event.size, event.time)
            if isinstance(event, DropEvent):
                reference.on_drop(event.flow_id, event.size, event.time)
            elif isinstance(event, DepartEvent):
                reference.on_depart(event.flow_id, event.size, event.delay, event.time)
        assert collector.flows.keys() == reference.flows.keys()
        for flow_id, stats in collector.flows.items():
            assert bits(stats) == bits(reference.flows[flow_id])
            if delay_histograms:
                assert histogram_bits(collector.delay_histogram(flow_id)) == histogram_bits(
                    reference.delay_histogram(flow_id)
                )
