"""Smoke tests for debugging-aid __repr__ methods.

These used to hide behind ``# pragma: no cover``; exercising them keeps
the reprs from rotting (they interpolate attributes that refactors move)
and keeps coverage pragmas honest.
"""

from repro.check.findings import Finding
from repro.sim.packet import Packet


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
