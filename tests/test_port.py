"""Output-port transmission and admission plumbing."""

import pytest

from repro.core.tail_drop import TailDropManager
from repro.errors import ConfigurationError
from repro.metrics.collector import StatsCollector
from repro.obs.events import DepartEvent
from repro.obs.sink import RingSink
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.sources import CBRSource, OnOffSource


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
        sim.schedule_fast(0.5, port._finish_transmission)
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
                sim.schedule_fast(
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


def two_source_port(sim, horizon):
    """A FIFO port fed by a CBR flow and an on-off flow, both stopping at ``horizon``."""
    collector = StatsCollector()
    port = OutputPort(sim, 64_000.0, FIFOScheduler(), TailDropManager(8_000.0), collector)
    CBRSource(sim, 0, 32_000.0, port, packet_size=500.0, until=horizon)
    OnOffSource(sim, 1, 96_000.0, 24_000.0, 4_000.0, port,
                Generator(SeedSequence(5)), packet_size=500.0, until=horizon)
    return port, collector


class TestPulledDepartures:
    """A link with no downstream and no sink makes its departures itself."""

    def test_departures_are_not_queued_events(self):
        sim, port, _ = make_port(rate=1000.0)
        port.receive(Packet(0, 500.0, 0.0))
        port.receive(Packet(0, 500.0, 0.0))
        assert sim.pending == 0
        assert sim._holders == {port: True}
        sim.run()
        assert (sim.events_processed, port.transmitted_packets, sim._holders) == (2, 2, {})

    def test_stepping_makes_the_departures_run_makes(self):
        # The last departure comes after the last queued entry: a step
        # that looked only at the queue would stop one event short.
        runs = []
        for drive in ("run", "step"):
            sim = Simulator()
            port, collector = two_source_port(sim, 2.0)
            if drive == "run":
                sim.run()
            else:
                while sim.step():
                    pass
            runs.append((sim.events_processed, sim.now, port.transmitted_packets,
                         {f: s.departed_packets for f, s in collector.flows.items()}))
        assert runs[0] == runs[1]
        assert runs[0][2] > 200

    def test_sink_attached_mid_run_sees_each_later_departure(self):
        # The held departures left are made through the one departure
        # body, which emits each now that a sink is attached.
        traces = []
        for attach_at in (0.0, 0.3):
            sim = Simulator()
            port, collector = two_source_port(sim, 1.0)
            sink = RingSink()
            sim.run(until=attach_at)
            assert port._due < float("inf") or attach_at == 0.0
            port.attach_trace(sink)
            sim.run()
            departs = [e for e in sink.events() if isinstance(e, DepartEvent)]
            traces.append((
                [e for e in departs if e.time > 0.3],
                sim.events_processed,
                {f: s.departed_packets for f, s in collector.flows.items()},
            ))
        assert traces[0] == traces[1]
        assert traces[0][0]
