"""Sim-time timeline sampler: series, sampling contract, export.

The timeline's contract has three legs, each pinned here:

* **Series arithmetic** — bounded rings with eviction accounting,
  min/mean/max reductions, sparkline downsampling.
* **Zero-cost when detached** — a constructed-but-uninstalled timeline
  schedules nothing and never perturbs the run it was built for; an
  installed one ticks exactly ``floor(T / interval)`` times.
* **Export** — the ``repro-timeline-v1`` JSONL file carries every
  sample under its header, the auditor refuses a stale header, and the
  summary dict is what ``obs timeline --json`` prints.
"""

import json

import pytest

from repro.check.artifacts import check_artifact_file
from repro.core.fixed_threshold import FixedThresholdManager
from repro.errors import ConfigurationError
from repro.obs.sink import RingSink
from repro.obs.timeline import (
    _SPARK_BLOCKS,
    TIMELINE_SCHEMA,
    SeriesStats,
    Timeline,
    TimelineSeries,
)
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort

#: The probes :func:`overloaded_port` registers on a timeline.
PORT_SERIES = ("occupancy", "backlog")

def overloaded_port(timeline=None, n_packets=400, sim_time=1.0):
    """Drive a port past saturation; optionally install ``timeline``."""
    sim = Simulator()
    manager = FixedThresholdManager(
        capacity=50_000.0, thresholds={flow: 10_000.0 for flow in range(4)}
    )
    port = OutputPort(sim, 1e6, FIFOScheduler(), manager)
    if timeline is not None:
        timeline.probe("occupancy", lambda: manager.total_occupancy)
        timeline.probe("backlog", lambda: float(port.backlog_packets))
    state = {"sent": 0}

    def arrival():
        port.receive(Packet(flow_id=state["sent"] % 4, size=500.0, created=sim.now))
        state["sent"] += 1
        if state["sent"] < n_packets:
            sim.schedule_fast(0.0004, arrival)

    sim.schedule_fast(0.0, arrival)
    if timeline is not None and timeline.interval <= sim_time:
        timeline.install(sim, sim_time)
    sim.run(until=sim_time)
    return sim, port, manager


class TestTimelineSeries:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            TimelineSeries("occupancy", capacity=0)

    def test_key_includes_node(self):
        assert TimelineSeries("occupancy").key == "occupancy"
        assert TimelineSeries("occupancy", node="n0->n1").key == "n0->n1/occupancy"

    def test_append_and_copies(self):
        series = TimelineSeries("x")
        series.append(0.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2
        times = series.times()
        times.append(99.0)  # caller's copy, not the ring
        assert series.times() == [0.0, 1.0]
        assert series.values() == [1.0, 2.0]

    def test_ring_eviction_counts_dropped(self):
        series = TimelineSeries("x", capacity=3)
        for i in range(5):
            series.append(float(i), float(i) * 10.0)
        assert len(series) == 3
        assert series.dropped == 2
        assert series.times() == [2.0, 3.0, 4.0]

    def test_stats(self):
        series = TimelineSeries("x")
        assert series.stats() is None
        for t, v in [(0.0, 2.0), (1.0, 8.0), (2.0, 5.0)]:
            series.append(t, v)
        stats = series.stats()
        assert stats == SeriesStats(count=3, minimum=2.0, mean=5.0, maximum=8.0, last=5.0)
        assert stats.to_dict() == {
            "count": 3, "min": 2.0, "mean": 5.0, "max": 8.0, "last": 5.0
        }

    def test_stats_cover_only_the_retained_samples(self):
        series = TimelineSeries("x", capacity=4)
        for i in range(10):
            series.append(float(i), float(i))
        stats = series.stats()
        assert stats.count == 4
        assert stats.minimum == 6.0 and stats.maximum == 9.0

    def test_sparkline_flat_series_uses_lowest_block(self):
        series = TimelineSeries("x")
        for i in range(8):
            series.append(float(i), 7.0)
        line = series.sparkline(width=4)
        assert line == _SPARK_BLOCKS[0] * 4

    def test_sparkline_spans_blocks(self):
        series = TimelineSeries("x")
        for i in range(64):
            series.append(float(i), float(i))
        line = series.sparkline(width=8)
        assert len(line) == 8
        assert line[0] == _SPARK_BLOCKS[0]
        assert line[-1] == _SPARK_BLOCKS[-1]

    def test_sparkline_width_must_be_positive(self):
        series = TimelineSeries("x")
        series.append(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            series.sparkline(width=0)
        assert TimelineSeries("empty").sparkline(8) == ""


class TestTimelineValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Timeline(interval=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_interval_must_be_finite(self, value):
        # An infinite interval would never tick; a NaN one fails only at install.
        with pytest.raises(ConfigurationError):
            Timeline(interval=value)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Timeline(capacity=0)

    def test_duplicate_probe_rejected(self):
        timeline = Timeline()
        timeline.probe("occupancy", lambda: 0.0)
        with pytest.raises(ConfigurationError):
            timeline.probe("occupancy", lambda: 1.0)
        # Same name on a different node is a different series.
        timeline.probe("occupancy", lambda: 2.0, node="n1")

    def test_double_install_rejected(self):
        timeline = Timeline()
        sim = Simulator()
        timeline.install(sim, 1.0)
        with pytest.raises(ConfigurationError):
            timeline.install(sim, 1.0)

    def test_install_until_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Timeline().install(Simulator(), 0.0)


class TestSamplingContract:
    def test_detached_timeline_schedules_nothing(self):
        sim_bare, port_bare, _ = overloaded_port()
        timeline = Timeline(interval=1e9)  # probed, never installed
        sim, port, _ = overloaded_port(timeline)
        assert timeline.ticks == 0
        assert all(len(timeline.series(name)) == 0 for name in PORT_SERIES)
        assert sim.events_processed == sim_bare.events_processed

    def test_installed_timeline_does_not_perturb_the_run(self):
        _, port_bare, m_bare = overloaded_port()
        timeline = Timeline(interval=0.05)
        _, port, manager = overloaded_port(timeline)
        assert timeline.ticks > 0
        assert port.backlog_packets == port_bare.backlog_packets
        assert manager.total_occupancy == m_bare.total_occupancy

    def test_tick_count_is_floor_of_horizon_over_interval(self):
        # A binary-exact interval so the reschedule accumulator is exact.
        timeline = Timeline(interval=0.125)
        overloaded_port(timeline, sim_time=1.0)
        # First tick at ``interval``, last at the largest multiple <= T.
        assert timeline.ticks == 8
        series = timeline.series("occupancy")
        assert series.times()[0] == pytest.approx(0.125)
        assert series.times()[-1] == pytest.approx(1.0)

    def test_ticks_read_live_values_and_stop_at_until(self):
        sim = Simulator()
        timeline = Timeline(interval=0.25)
        timeline.probe("clock", lambda: sim.now)
        timeline.probe("twice", lambda: 2.0 * sim.now)
        timeline.install(sim, until=1.0)
        sim.schedule_fast(10.0, lambda: None)  # the engine outlives the window
        sim.run()
        clock, twice = timeline.series("clock"), timeline.series("twice")
        # Each tick reads every probe at the tick's own instant.
        assert clock.values() == clock.times() == [0.25, 0.5, 0.75, 1.0]
        assert twice.times() == clock.times()
        assert twice.values() == [0.5, 1.0, 1.5, 2.0]

    def test_attach_trace_mirrors_samples(self):
        ring = RingSink()
        timeline = Timeline(interval=0.25)
        timeline.attach_trace(ring)
        overloaded_port(timeline, sim_time=1.0)
        samples = [e for e in ring.events() if type(e).kind == "sample"]
        # Two probes x four ticks.
        assert len(samples) == 8
        assert {e.series for e in samples} == {"occupancy", "backlog"}


class TestExport:
    def filled(self, tmp_path):
        timeline = Timeline(interval=0.1)
        overloaded_port(timeline, sim_time=1.0)
        path = tmp_path / "timeline.jsonl"
        timeline.write_jsonl(path)
        return timeline, path

    def test_jsonl_round_trip(self, tmp_path):
        timeline, path = self.filled(tmp_path)
        header, *samples = [
            json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
        ]
        assert header["kind"] == "header"
        assert header["schema"] == TIMELINE_SCHEMA
        assert header["interval"] == timeline.interval
        assert header["ticks"] == timeline.ticks
        assert header["series"] == sorted(PORT_SERIES)
        assert len(samples) == sum(len(timeline.series(name)) for name in PORT_SERIES)
        times = [s["time"] for s in samples]
        assert times == sorted(times)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "schema": "repro-timeline-v0"}\n')
        findings = check_artifact_file(path)
        assert [finding.rule_id for finding in findings] == ["RPR205"]

    def test_summary_round_trip(self, tmp_path):
        # Through JSON text, as ``obs timeline --json`` prints it.
        timeline, _ = self.filled(tmp_path)
        assert json.loads(json.dumps(timeline.summary().to_dict())) == {
            "schema": TIMELINE_SCHEMA,
            "interval": 0.1,
            "ticks": timeline.ticks,
            "series": {
                name: timeline.series(name).stats().to_dict() for name in PORT_SERIES
            },
        }

    def test_render_shows_every_series(self, tmp_path):
        timeline, _ = self.filled(tmp_path)
        text = timeline.render()
        for name in PORT_SERIES:
            assert name in text
