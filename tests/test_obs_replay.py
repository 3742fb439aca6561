"""Trace replay: the stream reconstructs the collector's accounting.

The acceptance bar for the tracing layer: run a Figure-1-style scenario
with a JSONL sink attached and rebuild every flow's accepted / dropped /
departed counters from the trace alone — they must match the live
:class:`~repro.metrics.collector.StatsCollector` exactly.  If the replay
matches, the trace is the run.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import table1_flows
from repro.obs import (
    JsonlSink,
    RingSink,
    filter_events,
    read_events,
    replay_flow_counts,
)
from repro.obs.events import DepartEvent, DropEvent, EnqueueEvent, ThresholdCrossEvent
from tests.conftest import examples


def traced_run(tmp_path, scheme, buffer_size, **kwargs):
    flows = table1_flows()[:8]
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        result = run_scenario(
            flows, scheme, buffer_size, sim_time=1.0, seed=3, sink=sink, **kwargs
        )
    return flows, path, result


@pytest.mark.parametrize(
    "scheme",
    [Scheme.FIFO_THRESHOLD, Scheme.FIFO_SHARING, Scheme.WFQ_THRESHOLD],
    ids=lambda s: s.name,
)
class TestReplayMatchesCollector:
    def test_per_flow_counts_match_exactly(self, tmp_path, scheme):
        _flows, path, result = traced_run(tmp_path, scheme, 12_000.0)
        replays = replay_flow_counts(read_events(path), warmup=result.warmup)
        assert any(stats.dropped_packets for stats in result.flow_stats.values())
        for flow_id, stats in result.flow_stats.items():
            replay = replays.get(flow_id)
            accepted = 0 if replay is None else replay.accepted_packets
            dropped = 0 if replay is None else replay.dropped_packets
            departed = 0 if replay is None else replay.departed_packets
            assert accepted == stats.accepted_packets, flow_id
            assert dropped == stats.dropped_packets, flow_id
            assert departed == stats.departed_packets, flow_id

    def test_per_flow_bytes_match_exactly(self, tmp_path, scheme):
        _flows, path, result = traced_run(tmp_path, scheme, 12_000.0)
        replays = replay_flow_counts(read_events(path), warmup=result.warmup)
        for flow_id, stats in result.flow_stats.items():
            replay = replays.get(flow_id)
            dropped = 0.0 if replay is None else replay.dropped_bytes
            departed = 0.0 if replay is None else replay.departed_bytes
            assert dropped == pytest.approx(stats.dropped_bytes)
            assert departed == pytest.approx(stats.departed_bytes)


class TestTraceContents:
    def test_hybrid_scheme_traces_once_per_packet(self, tmp_path):
        flows = table1_flows()[:8]
        ids = [flow.flow_id for flow in flows]
        groups = [ids[:4], ids[4:]]
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            result = run_scenario(
                flows,
                Scheme.HYBRID_SHARING,
                12_000.0,
                sim_time=1.0,
                seed=3,
                sink=sink,
                groups=groups,
            )
        enqueues = sum(
            1 for event in read_events(path) if isinstance(event, EnqueueEvent)
        )
        # One EnqueueEvent per admitted packet, despite the scheduler
        # wrapping an inner WFQ (only the outer layer is attached).
        admitted = sum(
            stats.accepted_packets for stats in result.flow_stats.values()
        )
        offered_before_warmup = enqueues - admitted
        assert offered_before_warmup >= 0  # warmup events traced, not counted

    def test_drop_reason_classifies_threshold(self, tmp_path):
        # Thresholds far below capacity: every drop is the policy's.
        flows = table1_flows()[:8]
        path = tmp_path / "trace.jsonl"
        from repro.core.fixed_threshold import FixedThresholdManager
        from repro.sched.fifo import FIFOScheduler
        from repro.sim.engine import Simulator
        from repro.sim.packet import Packet
        from repro.sim.port import OutputPort

        sim = Simulator()
        manager = FixedThresholdManager(
            capacity=1_000_000.0, thresholds={1: 1000.0}
        )
        port = OutputPort(sim, 1e6, FIFOScheduler(), manager)
        with JsonlSink(path) as sink:
            port.attach_trace(sink)
            for i in range(5):
                port.receive(Packet(flow_id=1, size=500.0, created=0.0))
        reasons = {
            event.reason
            for event in read_events(path)
            if isinstance(event, DropEvent)
        }
        assert reasons == {"threshold"}

    def test_threshold_cross_events_bracket_occupancy(self, tmp_path):
        from repro.core.fixed_threshold import FixedThresholdManager

        sink = RingSink()
        clock = [0.0]
        manager = FixedThresholdManager(
            capacity=10_000.0, thresholds={1: 1000.0}
        )
        manager.attach_trace(sink, lambda: clock[0])
        for _ in range(2):
            assert manager.try_admit(1, 500.0)
        assert not manager.try_admit(1, 500.0)
        manager.on_depart(1, 500.0)
        crossings = [
            event for event in sink.events() if isinstance(event, ThresholdCrossEvent)
        ]
        assert [event.direction for event in crossings] == ["up", "down"]
        assert crossings[0].occupancy == 1000.0
        assert crossings[1].occupancy == 500.0

    def test_headroom_events_from_sharing_manager(self, tmp_path):
        _flows, path, _result = traced_run(tmp_path, Scheme.FIFO_SHARING, 12_000.0)
        kinds = {type(event).kind for event in read_events(path)}
        assert "headroom" in kinds


class TestFilters:
    def events(self, tmp_path):
        _flows, path, _result = traced_run(tmp_path, Scheme.FIFO_THRESHOLD, 12_000.0)
        return list(read_events(path))

    def test_filter_by_flow(self, tmp_path):
        events = self.events(tmp_path)
        flow_id = events[0].flow_id
        selected = list(filter_events(events, flows=[flow_id]))
        assert selected
        assert all(event.flow_id == flow_id for event in selected)

    def test_filter_by_kind(self, tmp_path):
        events = self.events(tmp_path)
        selected = list(filter_events(events, kinds=["drop"]))
        assert selected
        assert all(type(event).kind == "drop" for event in selected)

    def test_filter_by_window_inclusive(self, tmp_path):
        events = self.events(tmp_path)
        selected = list(filter_events(events, since=0.2, until=0.4))
        assert selected
        assert all(0.2 <= event.time <= 0.4 for event in selected)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown event kinds"):
            filter_events([], kinds=["martian"])

    def test_flow_filter_excludes_flowless_events(self, tmp_path):
        _flows, path, _result = traced_run(tmp_path, Scheme.FIFO_SHARING, 12_000.0)
        selected = list(filter_events(read_events(path), flows=[0]))
        assert all(type(event).kind != "headroom" for event in selected)

    def fabric_events(self, tmp_path):
        from repro.experiments.fabric import run_fabric
        from repro.experiments.fabric.demo import demo_tandem
        from repro.obs import JsonlSink

        path = tmp_path / "net-trace.jsonl"
        scenario = demo_tandem(
            hops=2, seed=0, sim_time=1.0, churn=False, delay_histograms=False
        )
        with JsonlSink(path) as sink:
            run_fabric(scenario, sink=sink)
        return list(read_events(path))

    def test_filter_by_node(self, tmp_path):
        events = self.fabric_events(tmp_path)
        selected = list(filter_events(events, nodes=["n0->n1"]))
        assert selected
        assert all(event.node == "n0->n1" for event in selected)
        assert len(selected) < len(events)

    def test_node_filter_composes_with_kind(self, tmp_path):
        events = self.fabric_events(tmp_path)
        selected = list(
            filter_events(events, nodes=["n1->n2"], kinds=["enqueue"])
        )
        assert selected
        assert all(
            type(e).kind == "enqueue" and e.node == "n1->n2" for e in selected
        )

    def test_blank_node_selects_single_port_events(self, tmp_path):
        events = self.events(tmp_path)
        selected = list(filter_events(events, nodes=[""]))
        # Single-port runs label everything with the empty string —
        # except engine compact events, which carry no node at all.
        assert selected
        assert all(type(event).kind != "compact" for event in selected)
        labelled = [e for e in events if hasattr(e, "node")]
        assert len(selected) == len(labelled)


#: No bound, one among the event times, or any finite float.
FINITE_BOUNDS = st.none() | st.floats(-12.0, 12.0) | st.floats(allow_nan=False, allow_infinity=False)


class TestTimeBounds:
    """``since``/``until`` keep exactly the events in the closed window;
    a NaN bound compares False with every time and would keep them all,
    so a bound that is not finite is refused."""

    @given(
        times=st.lists(st.floats(-10.0, 10.0), max_size=30),
        since=FINITE_BOUNDS,
        until=FINITE_BOUNDS,
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_finite_bounds_keep_exactly_the_closed_window(self, times, since, until):
        events = [DepartEvent(time, 1, 500.0, 0.0) for time in times]
        kept = list(filter_events(events, since=since, until=until))
        assert kept == [
            event
            for event in events
            if (since is None or since <= event.time)
            and (until is None or event.time <= until)
        ]

    @given(
        bound=st.sampled_from([math.nan, math.inf, -math.inf]),
        which=st.sampled_from(["since", "until"]),
        other=FINITE_BOUNDS,
    )
    @settings(max_examples=examples(30), deadline=None)
    def test_non_finite_bound_raises(self, bound, which, other):
        events = [DepartEvent(time, 1, 500.0, 0.0) for time in (0.0, 0.5, 1.0)]
        bounds = {which: bound, "until" if which == "since" else "since": other}
        # Refused at the call, before the first ``next()``.
        with pytest.raises(ConfigurationError, match="finite"):
            filter_events(events, **bounds)
        with pytest.raises(ConfigurationError, match="finite"):
            filter_events([], since=float("nan"))
