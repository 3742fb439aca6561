"""Property-based tests: output-port conservation laws, and a link that
pulls its departures runs exactly as one whose departures are events."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dynamic_threshold import DynamicThresholdManager
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.red import REDManager
from repro.core.shared_headroom import SharedHeadroomManager
from repro.core.tail_drop import TailDropManager
from repro.errors import SimulationError
from repro.metrics.collector import FlowStats, StatsCollector
from repro.obs.events import DepartEvent, DropEvent, EnqueueEvent
from repro.obs.sink import RingSink
from repro.obs.timeline import Timeline
from repro.sched.fifo import FIFOScheduler
from repro.sched.hybrid import HybridScheduler
from repro.sched.scfq import SCFQScheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.adversarial import ThresholdFillingSource
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import CBRSource, OnOffSource
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


#: Link rates whose transmission time of a 500-byte packet is dyadic, so
#: sums of departure and emission gaps are exact and tie on purpose.
TIE_LINKS = (32_000.0, 64_000.0, 128_000.0)
#: CBR rates as multiples of the link rate: slower chains tie with the
#: departures queued after them, faster ones with those queued before.
TIE_RATIOS = (0.125, 0.25, 0.5, 1.0, 2.0)
TIE_SIZE = 500.0


@st.composite
def pulled_runs(draw):
    """A one-port run: every knob a pulled link's departures interact with."""
    link = draw(st.sampled_from(TIE_LINKS))
    sources = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("cbr"), st.sampled_from(TIE_RATIOS),
                          st.sampled_from((0.0, 0.0, 0.015625, 0.01))),
                st.tuples(st.sampled_from(("onoff", "shaped")),
                          st.floats(min_value=0.3, max_value=3.0),  # peak / link
                          st.floats(min_value=0.1, max_value=1.0),  # avg / peak
                          st.integers(min_value=0, max_value=2**16)),
            ),
            min_size=1,
            max_size=4,
        )
    )
    horizon = draw(st.sampled_from((0.25, 0.5, 1.0)))
    drive = draw(st.sampled_from(("run", "until", "cut", "step")))
    return dict(
        link=link,
        sources=sources,
        filling=draw(st.booleans()),
        scheduler=draw(st.sampled_from(("fifo", "wfq", "scfq", "hybrid"))),
        manager=draw(st.sampled_from(("fixed", "sharing", "red"))),
        buffer=TIE_SIZE * draw(st.integers(min_value=2, max_value=24)),
        horizon=horizon,
        drive=drive,
        until=horizon * draw(st.sampled_from((0.5, 1.0, 1.5))),
        max_events=None if drive == "step" else draw(
            st.none() | st.integers(min_value=1, max_value=1_500)
        ),
        timeline=draw(st.none() | st.sampled_from((0.0625, 0.05))),
    )


def run_pulled(spec, pushed: bool):
    """Run ``spec``, pushed (a sink watches every departure) or pulled; what came out."""
    sim = Simulator()
    link = spec["link"]
    flows = list(range(len(spec["sources"]) + spec["filling"]))
    share = spec["buffer"] / len(flows)
    if spec["manager"] == "fixed":
        manager = FixedThresholdManager(spec["buffer"], {f: share for f in flows})
    elif spec["manager"] == "sharing":
        manager = SharedHeadroomManager(
            spec["buffer"], {f: share * 0.5 for f in flows}, spec["buffer"] * 0.25
        )
    else:
        manager = REDManager(
            spec["buffer"], spec["buffer"] * 0.25, spec["buffer"] * 0.75,
            Generator(SeedSequence(9)), sim, max_p=0.2, weight=0.2,
            mean_tx_time=TIE_SIZE / link,
        )
    weights = {f: float(f + 1) for f in flows}
    if spec["scheduler"] == "fifo":
        scheduler = FIFOScheduler()
    elif spec["scheduler"] == "wfq":
        scheduler = WFQScheduler(sim, link, weights)
    elif spec["scheduler"] == "scfq":
        scheduler = SCFQScheduler(weights)
    else:
        groups = [flows[::2], flows[1::2]] if len(flows) > 1 else [flows]
        scheduler = HybridScheduler(sim, link, groups, [link / len(groups)] * len(groups))
    collector = StatsCollector(delay_histograms=True)
    port = OutputPort(sim, link, scheduler, manager, collector)
    if pushed:
        port.attach_trace(RingSink())
    horizon = spec["horizon"]
    for flow_id, source in enumerate(spec["sources"]):
        if source[0] == "cbr":
            _, ratio, start = source
            CBRSource(sim, flow_id, link * ratio, port, packet_size=TIE_SIZE,
                      start=start, until=horizon)
            continue
        kind, peak, average, seed = source
        peak *= link
        sink = port
        if kind == "shaped":
            sink = LeakyBucketShaper(sim, 2 * TIE_SIZE, peak * average, port)
        OnOffSource(sim, flow_id, peak, peak * average, 4 * TIE_SIZE, sink,
                    Generator(SeedSequence(seed)), packet_size=TIE_SIZE, until=horizon)
    if spec["filling"]:
        ThresholdFillingSource(sim, flows[-1], port, share, packet_size=TIE_SIZE,
                               until=horizon)
    timeline = None
    if spec["timeline"] is not None:
        timeline = Timeline(spec["timeline"])
        timeline.probe("occupancy", lambda: manager.total_occupancy)
        timeline.probe("backlog", lambda: float(port.backlog_packets))
        timeline.install(sim, horizon)
    error = None
    try:
        if spec["drive"] == "step":
            while sim.step():
                pass
        elif spec["drive"] == "run":
            sim.run(max_events=spec["max_events"])
        elif spec["drive"] == "until":
            sim.run(until=spec["until"], max_events=spec["max_events"])
        else:
            sim.run(until=spec["until"] / 3, max_events=spec["max_events"])
            sim.run(until=spec["until"], max_events=spec["max_events"])
    except SimulationError as raised:
        error = str(raised)
    return (
        {f: (bits(s), s.bins) for f, s in sorted(collector.flows.items())},
        sim.events_processed,
        sim.now.hex(),
        [manager.occupancy(f).hex() for f in flows],
        (port.admitted_packets, port.dropped_packets, port.transmitted_packets),
        error,
        None if timeline is None else [
            (series.key, series.times(), series.values())
            for series in timeline._series.values()
        ],
    )


def tie_run(**changes):
    """A drawn-run spec: one CBR flow at 1/8 of a 32 kB/s link, run to its end."""
    spec = dict(
        link=32_000.0, sources=[("cbr", 0.125, 0.0)], filling=False, scheduler="fifo",
        manager="fixed", buffer=1_000.0, horizon=0.25, drive="run", until=0.125,
        max_events=None, timeline=None,
    )
    spec.update(changes)
    return spec


#: Runs the drawn ones reach often but not always, each one a broken
#: pull got wrong: a CBR flow at the link rate is queued after the
#: departure it ties with, so that departure goes first (time alone puts
#: the arrival first); a slower chain, here the filling source's polls
#: beside a CBR flow, was queued first and goes first (time alone, `<=`,
#: puts the departure first); and a run cut by ``max_events`` between a
#: shaper's held emissions and the link's held departures makes them in
#: time order, not holder by holder.
PINNED_PULLS = {
    "lockstep with the link": tie_run(sources=[("cbr", 0.125, 0.0), ("cbr", 1.0, 0.0)]),
    "queued before the departure": tie_run(
        filling=True, manager="red", buffer=2_000.0, horizon=0.5, until=0.25
    ),
    "limit across holders": tie_run(
        link=64_000.0,
        sources=[("cbr", 0.125, 0.0), ("cbr", 0.125, 0.0), ("shaped", 1.65625, 0.375, 8)],
        buffer=1_500.0, horizon=1.0, until=0.5, max_events=183, timeline=0.0625,
    ),
}


def pinned_pulls(test):
    for spec in PINNED_PULLS.values():
        test = example(spec=spec)(test)
    return test


class TestPulledEqualsPushed:
    """A link with no downstream and no sink makes its departures itself
    (pulled); with a sink attached each one is an engine event (pushed).
    Same-instant ties are resolved by the key the departure's event would
    have had, so the two runs agree on everything a run reports: the
    per-flow records and histogram bins, the logical event count, the
    clock, the buffer, where a ``max_events`` error strikes and what a
    timeline samples."""

    @given(spec=pulled_runs())
    @pinned_pulls
    @settings(max_examples=examples(80), deadline=None)
    def test_pulled_run_is_the_pushed_one(self, spec):
        pulled = run_pulled(spec, pushed=False)
        assert pulled == run_pulled(spec, pushed=True)
