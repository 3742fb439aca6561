"""Packet object semantics."""

from repro.sim.packet import Packet


class TestPacket:
    def test_attributes(self):
        packet = Packet(flow_id=7, size=500.0, created=1.25)
        assert packet.flow_id == 7
        assert packet.size == 500.0
        assert packet.created == 1.25

    def test_enqueued_starts_unset(self):
        assert Packet(0, 500.0, 0.0).enqueued is None

    def test_seq_is_unique_and_increasing(self):
        first = Packet(0, 500.0, 0.0)
        second = Packet(0, 500.0, 0.0)
        assert second.seq > first.seq

    def test_slots_prevent_arbitrary_attributes(self):
        packet = Packet(0, 500.0, 0.0)
        try:
            packet.color = "green"
            assert False, "Packet should use __slots__"
        except AttributeError:
            pass


class TestAcquireAlias:
    """``Packet.acquire`` is the constructor under its pre-removal name."""

    def test_acquire_matches_constructor(self):
        built = Packet(3, 500.0, 1.5)
        acquired = Packet.acquire(3, 500.0, 1.5)
        assert type(acquired) is Packet
        assert (acquired.flow_id, acquired.size, acquired.created) == (3, 500.0, 1.5)
        assert acquired.enqueued is None
        # Same seq allocation order as the constructor: one shared counter.
        assert acquired.seq == built.seq + 1
        assert Packet(3, 500.0, 1.5).seq == acquired.seq + 1
