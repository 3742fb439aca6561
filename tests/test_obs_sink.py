"""Trace sinks: bounded ring, fan-out tee and streaming JSONL."""

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fabric import run_fabric
from repro.experiments.fabric.demo import demo_tandem
from repro.obs.events import (
    TRACE_SCHEMA,
    DepartEvent,
    DropEvent,
    EnqueueEvent,
    HeapCompactEvent,
    ReprovisionEvent,
)
from repro.obs.monitor import ConformanceMonitor
from repro.obs.reader import read_events
from repro.obs.sink import JsonlSink, RingSink, TeeSink, TraceSink
from repro.obs.timeline import Timeline


def make_event(i):
    return EnqueueEvent(time=float(i), flow_id=i, size=500.0, backlog=i)


class TestRingSink:
    def test_keeps_most_recent_events(self):
        sink = RingSink(capacity=3)
        for i in range(5):
            sink.emit(make_event(i))
        assert [e.flow_id for e in sink.events()] == [2, 3, 4]
        assert len(sink) == 3
        assert sink.emitted == 5  # drops are counted, not lost silently

    def test_clear(self):
        sink = RingSink(capacity=3)
        sink.emit(make_event(0))
        sink.clear()
        assert sink.events() == []
        assert sink.emitted == 1

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            RingSink(capacity=0)

    def test_satisfies_protocol(self):
        assert isinstance(RingSink(), TraceSink)


class TestTeeSink:
    def test_every_sink_sees_every_event_in_argument_order(self):
        seen = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def emit(self, event):
                seen.append((self.tag, event.flow_id))

        tee = TeeSink(Tagged("a"), Tagged("b"))
        tee.emit(make_event(1))
        tee.emit(make_event(2))
        assert seen == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]
        assert tee.emitted == 2

    # One event of each kind the monitor checks and of two it does not,
    # in a fixed emission order.
    STREAM = [
        make_event(1),
        DropEvent(1.5, 2, 500.0, "threshold", "a->b"),
        DepartEvent(2.0, 1, 500.0, 0.001, "a->b"),
        HeapCompactEvent(2.5, 10, 4),
        ReprovisionEvent(3.0, 1, 1000.0, 2000.0, "a->b"),
        make_event(4),
    ]

    class Routed:
        """A kind-routed consumer: only drops and departures, by handler."""

        def __init__(self):
            self.got = []
            self.tees = []

        def kind_handlers(self, tee):
            self.tees.append(tee)
            return {DropEvent: self.got.append, DepartEvent: self.got.append}

        def emit(self, event):
            raise AssertionError("a routed consumer is never sent the whole stream")

    class Plain:
        def __init__(self):
            self.got = []

        def emit(self, event):
            self.got.append(event)

    def test_every_downstream_sees_events_in_emission_order(self):
        ring, plain, monitor = RingSink(), self.Plain(), ConformanceMonitor()
        monitor.watch_flow(2)  # the drop of flow 2 is a finding,
        monitor.attach_trace(ring)  # mirrored into the ring
        tee = TeeSink(ring, plain, monitor)
        for event in self.STREAM:
            tee.emit(event)
        assert plain.got == self.STREAM
        # The ring, given before the monitor, records the drop before the
        # check that mirrors its finding runs.
        recorded = ring.events()
        assert [event.kind for event in recorded] == [
            "enqueue", "drop", "violation", "depart", "compact", "reprovision", "enqueue"
        ]
        assert [event for event in recorded if event.kind != "violation"] == self.STREAM
        assert monitor._checks["conformant-drop"] == 1
        assert monitor._drain_caps == {("a->b", 1): 2000.0}

    def test_kind_routed_consumer_gets_only_its_kinds(self):
        routed = self.Routed()
        tee = TeeSink(RingSink(), routed)
        for event in self.STREAM:
            tee.emit(event)
        assert routed.tees == [tee]
        assert routed.got == [self.STREAM[1], self.STREAM[2]]

    def test_counts_are_exact(self):
        ring, plain, monitor = RingSink(capacity=2), self.Plain(), ConformanceMonitor()
        tee = TeeSink(ring, plain, monitor)
        for event in self.STREAM:
            tee.emit(event)
        assert tee.emitted == ring.emitted == len(plain.got) == len(self.STREAM)
        assert len(ring) == 2
        # Every event through the tee counts as seen by the monitor, a
        # direct emit on top of them too; a mirrored finding does not.
        assert monitor.events_seen == len(self.STREAM)
        monitor.emit(make_event(5))
        assert monitor.events_seen == len(self.STREAM) + 1
        monitor.watch_flow(2)
        monitor.attach_trace(ring)
        tee.emit(self.STREAM[1])
        assert ring.events()[-1].kind == "violation"
        assert monitor.events_seen == tee.emitted + 1 == len(self.STREAM) + 2
        # The ring counts the finding, which reached it directly.
        assert ring.emitted == tee.emitted + 1

    def test_needs_a_downstream_sink(self):
        with pytest.raises(ConfigurationError):
            TeeSink()

    def test_refuses_a_non_trace_object_by_name(self):
        tee = TeeSink(RingSink(), ConformanceMonitor())
        with pytest.raises(ConfigurationError, match="not <class 'object'>"):
            tee.emit(object())
        assert tee.emitted == 0

    def test_satisfies_protocol(self):
        assert isinstance(TeeSink(RingSink()), TraceSink)


class TestJsonlSink:
    def test_header_then_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(make_event(1))
            sink.emit(make_event(2))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"kind": "header", "schema": TRACE_SCHEMA}
        assert len(lines) == 3
        assert sink.emitted == 2

    def test_round_trips_through_reader(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = [make_event(i) for i in range(4)]
        with JsonlSink(path) as sink:
            for event in events:
                sink.emit(event)
        assert list(read_events(path)) == events

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        with JsonlSink(path):
            pass
        assert path.is_file()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        with pytest.raises(ConfigurationError):
            sink.emit(make_event(0))

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        sink.close()

    def test_satisfies_protocol(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        try:
            assert isinstance(sink, TraceSink)
        finally:
            sink.close()


class TestPinnedTrace:
    def test_reference_tandem_serializes_to_the_same_bytes(self, tmp_path):
        """The file as written: key order, float text, event order.

        The reference tandem with churn, reclamation, a timeline and the
        monitor attached writes enqueue, depart, reprovision and pool
        lines; a reordered field, a lost event or a float that took
        another route to ``json.dumps`` moves the digest.
        """
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            result = run_fabric(
                demo_tandem(hops=3, seed=15, sim_time=1.0, churn=True, reclamation=True),
                sink=sink,
                timeline=Timeline(0.01),
                monitor=ConformanceMonitor(),
            )
        data = path.read_bytes()
        assert data.count(b"\n") == 23_041
        assert hashlib.sha256(data).hexdigest()[:16] == "158cd0be5a58e336"
        report = result.monitor_report
        assert report.ok
        assert report.events_seen == sink.emitted == 23_040
        assert report.checks == {
            "conformant-drop": 0,
            "occupancy-threshold": 207,
            "hop-delay": 11_508,
        }


class TestReader:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "enqueue"}\n')
        with pytest.raises(ConfigurationError):
            list(read_events(path))

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "schema": "repro-trace-v999"}\n')
        with pytest.raises(ConfigurationError):
            list(read_events(path))

    def test_unparsable_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "schema": TRACE_SCHEMA}) + "\nnot json\n"
        )
        with pytest.raises(ConfigurationError):
            list(read_events(path))

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(make_event(1))
        path.write_text(path.read_text() + "\n\n")
        assert len(list(read_events(path))) == 1
