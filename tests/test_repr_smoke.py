"""Smoke tests for debugging-aid __repr__ methods.

These used to hide behind ``# pragma: no cover``; exercising them keeps
the reprs from rotting (they interpolate attributes that refactors move)
and keeps coverage pragmas honest.
"""

from repro.check.findings import Finding
from repro.sim.engine import Simulator
from repro.sim.packet import Packet


class TestEventRepr:
    def test_pending_event(self):
        sim = Simulator()
        event = sim.schedule(1.25, lambda: None)
        text = repr(event)
        assert "Event(" in text
        assert "t=1.250000" in text
        assert "pending" in text

    def test_cancelled_event(self):
        sim = Simulator()
        event = sim.schedule(2.0, lambda: None)
        event.cancel()
        assert "cancelled" in repr(event)

    def test_named_callback_shown(self):
        sim = Simulator()

        def tick():
            return None

        event = sim.schedule(0.5, tick)
        assert "tick" in repr(event)


class TestPacketRepr:
    def test_repr_mentions_flow_size_and_time(self):
        packet = Packet(flow_id=7, size=1500.0, created=0.125)
        text = repr(packet)
        assert "flow=7" in text
        assert "1500" in text
        assert "0.125000" in text


class TestFindingRepr:
    def test_active_finding(self):
        finding = Finding("RPR101", "msg", "src/repro/x.py", 3, 4)
        text = repr(finding)
        assert "RPR101" in text
        assert "src/repro/x.py:3:5" in text
        assert "suppressed" not in text

    def test_suppressed_finding(self):
        finding = Finding("RPR102", "msg", "src/repro/x.py", 3, 0)
        finding.suppressed = True  # as the engine marks a covered finding
        assert "[suppressed]" in repr(finding)
