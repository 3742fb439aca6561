"""Output-port transmission and admission plumbing."""

import pytest

from repro.core.tail_drop import TailDropManager
from repro.errors import ConfigurationError
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort


def make_port(rate=1000.0, capacity=10_000.0, warmup=0.0):
    sim = Simulator()
    collector = StatsCollector(warmup=warmup)
    port = OutputPort(sim, rate, FIFOScheduler(), TailDropManager(capacity), collector)
    return sim, port, collector


class TestTransmission:
    def test_single_packet_transmits_in_size_over_rate(self):
        sim, port, collector = make_port(rate=1000.0)
        port.receive(Packet(0, 500.0, 0.0))
        sim.run()
        assert sim.now == pytest.approx(0.5)
        assert collector.flows[0].departed_packets == 1

    def test_back_to_back_packets_serialise(self):
        sim, port, _ = make_port(rate=1000.0)
        port.receive(Packet(0, 500.0, 0.0))
        port.receive(Packet(0, 500.0, 0.0))
        sim.run()
        assert sim.now == pytest.approx(1.0)
        assert port.transmitted_packets == 2

    def test_port_is_work_conserving(self):
        # A packet arriving while the link is idle starts transmitting at
        # its arrival time, not at some later boundary.
        sim, port, collector = make_port(rate=1000.0)
        sim.schedule_at(3.0, port.receive, Packet(0, 100.0, 3.0))
        sim.run()
        assert sim.now == pytest.approx(3.1)

    def test_delay_measured_from_admission_to_departure(self):
        sim, port, collector = make_port(rate=1000.0)
        port.receive(Packet(0, 500.0, 0.0))
        port.receive(Packet(0, 500.0, 0.0))
        sim.run()
        stats = collector.flows[0]
        # First packet: 0.5s (transmission); second: 1.0s (wait + tx).
        assert stats.delay_sum == pytest.approx(1.5)
        assert stats.delay_max == pytest.approx(1.0)

    def test_buffer_freed_on_departure(self):
        sim, port, _ = make_port(rate=1000.0, capacity=600.0)
        assert port.receive(Packet(0, 500.0, 0.0))
        assert not port.receive(Packet(0, 500.0, 0.0))  # buffer full
        sim.run()
        # After the first packet departs there is room again.
        assert port.receive(Packet(0, 500.0, 0.0))

    def test_backlog_counts_in_service_packet(self):
        sim, port, _ = make_port()
        port.receive(Packet(0, 500.0, 0.0))
        port.receive(Packet(0, 500.0, 0.0))
        assert port.backlog_packets == 2  # one queued, one in service


class TestAdmission:
    def test_rejected_packet_counted_as_dropped(self):
        sim, port, collector = make_port(capacity=400.0)
        assert not port.receive(Packet(0, 500.0, 0.0))
        assert port.dropped_packets == 1
        assert collector.flows[0].dropped_packets == 1
        assert collector.flows[0].offered_packets == 1

    def test_admitted_packet_counted(self):
        sim, port, collector = make_port()
        assert port.receive(Packet(0, 500.0, 0.0))
        assert port.admitted_packets == 1
        assert collector.flows[0].offered_packets == 1
        assert collector.flows[0].dropped_packets == 0

    def test_drop_does_not_touch_scheduler(self):
        sim, port, _ = make_port(capacity=400.0)
        port.receive(Packet(0, 500.0, 0.0))
        assert port.backlog_packets == 0


class TestAccountingIntegrity:
    def test_unstamped_packet_raises_instead_of_zero_delay(self):
        # A packet reaching the link without an `enqueued` timestamp used
        # to be recorded silently with delay `now - None`-turned-zero
        # semantics; it must fail loudly instead.
        from repro.errors import SimulationError

        sim, port, _ = make_port()
        rogue = Packet(0, 500.0, 0.0)
        port._serving = rogue  # pretend the link grabbed it directly
        sim.schedule(0.5, port._finish_transmission)
        with pytest.raises(SimulationError, match="enqueue"):
            sim.run()

    def test_admitted_packets_are_always_stamped(self):
        sim, port, _ = make_port()
        packet = Packet(0, 500.0, 0.0)
        assert packet.enqueued is None
        port.receive(packet)
        assert packet.enqueued == pytest.approx(sim.now)
        sim.run()  # and servicing it does not raise


class TestValidation:
    def test_non_positive_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            OutputPort(sim, 0.0, FIFOScheduler(), TailDropManager(1000.0))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, rate):
        # Refused here, not at the first transmission as a past-time
        # error far from the bad argument.
        with pytest.raises(ConfigurationError, match="positive and finite"):
            OutputPort(Simulator(), rate, FIFOScheduler(), TailDropManager(1000.0))

    def test_collector_is_optional(self):
        sim = Simulator()
        port = OutputPort(sim, 1000.0, FIFOScheduler(), TailDropManager(1000.0))
        port.receive(Packet(0, 500.0, 0.0))
        sim.run()
        assert port.transmitted_packets == 1


class TestWarmupAccounting:
    def test_events_before_warmup_ignored(self):
        sim, port, collector = make_port(warmup=1.0)
        port.receive(Packet(0, 500.0, 0.0))  # offered at t=0 < warmup
        sim.run()
        # Offered/drop at t=0 ignored; departure at t=0.5 also ignored.
        assert 0 not in collector.flows or collector.flows[0].offered_packets == 0

    def test_departure_after_warmup_counted_even_if_offered_before(self):
        sim, port, collector = make_port(rate=100.0, warmup=1.0)
        port.receive(Packet(0, 500.0, 0.0))  # departs at t=5 > warmup
        sim.run()
        assert collector.flows[0].departed_packets == 1
        assert collector.flows[0].offered_packets == 0


class TestRecycleMode:
    """``recycle=`` is accepted and ignored: packets are never pooled."""

    def test_downstream_hop_keeps_ownership(self):
        # The next hop receives the very object the port was given.
        sim = Simulator()
        received = []
        port = OutputPort(
            sim,
            1000.0,
            FIFOScheduler(),
            TailDropManager(10_000.0),
            downstream={0: received.append},  # flow 0's next hop
            recycle=True,
        )
        packet = Packet(0, 500.0, 0.0)
        port.receive(packet)
        sim.run()
        assert len(received) == 1 and received[0] is packet
        assert (packet.flow_id, packet.size, packet.created) == (0, 500.0, 0.0)

    def test_accounting_identical_with_and_without_recycling(self):
        def drive(recycle):
            sim = Simulator()
            collector = StatsCollector(warmup=0.0)
            port = OutputPort(
                sim,
                1000.0,
                FIFOScheduler(),
                TailDropManager(1_000.0),
                collector,
                recycle=recycle,
            )
            for i in range(8):
                sim.schedule(
                    i * 0.1,
                    lambda i=i: port.receive(Packet(0, 500.0, sim.now)),
                )
            sim.run()
            stats = collector.flows[0]
            return (
                port.admitted_packets,
                port.dropped_packets,
                port.transmitted_packets,
                stats.offered_packets,
                stats.dropped_packets,
                stats.departed_packets,
            )

        assert drive(recycle=True) == drive(recycle=False)
