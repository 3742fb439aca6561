"""Leaky-bucket shaper and token-bucket meter."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.traffic.shaper import LeakyBucketShaper, TokenBucketMeter


class Recorder:
    def __init__(self, clock):
        self.clock = clock
        self.arrivals = []  # (time, size)

    def receive(self, packet):
        self.arrivals.append((self.clock(), packet.size))


def make_shaper(sigma=1000.0, rho=1000.0):
    sim = Simulator()
    sink = Recorder(lambda: sim.now)
    shaper = LeakyBucketShaper(sim, sigma, rho, sink)
    return sim, shaper, sink


class TestImmediateForwarding:
    def test_within_bucket_passes_through(self):
        sim, shaper, sink = make_shaper(sigma=1000.0)
        shaper.receive(Packet(0, 500.0, 0.0))
        assert sink.arrivals == [(0.0, 500.0)]

    def test_full_bucket_accepts_burst_of_sigma(self):
        sim, shaper, sink = make_shaper(sigma=1000.0)
        shaper.receive(Packet(0, 500.0, 0.0))
        shaper.receive(Packet(0, 500.0, 0.0))
        assert len(sink.arrivals) == 2


class TestDelaying:
    def test_excess_packet_delayed_until_tokens_accumulate(self):
        sim, shaper, sink = make_shaper(sigma=1000.0, rho=1000.0)
        for _ in range(3):
            shaper.receive(Packet(0, 500.0, 0.0))
        assert len(sink.arrivals) == 2
        sim.run()
        # Third packet needs 500 more tokens at 1000/s: leaves at 0.5s.
        assert sink.arrivals[2] == (pytest.approx(0.5), 500.0)

    def test_queued_packets_leave_at_token_rate(self):
        sim, shaper, sink = make_shaper(sigma=500.0, rho=1000.0)
        for _ in range(4):
            shaper.receive(Packet(0, 500.0, 0.0))
        sim.run()
        times = [t for t, _ in sink.arrivals]
        assert times == [pytest.approx(0.0), pytest.approx(0.5),
                         pytest.approx(1.0), pytest.approx(1.5)]

    def test_fifo_order_preserved(self):
        sim, shaper, sink = make_shaper(sigma=500.0, rho=1000.0)
        sizes = [500.0, 300.0, 200.0]
        for size in sizes:
            shaper.receive(Packet(0, size, 0.0))
        sim.run()
        assert [s for _, s in sink.arrivals] == sizes

    def test_tokens_replenish_during_idle(self):
        sim, shaper, sink = make_shaper(sigma=1000.0, rho=1000.0)
        shaper.receive(Packet(0, 1000.0, 0.0))  # drains bucket
        sim.schedule_at(2.0, shaper.receive, Packet(0, 1000.0, 2.0))
        sim.run()
        # Bucket refilled over 2 idle seconds (capped at sigma).
        assert sink.arrivals[1] == (pytest.approx(2.0), 1000.0)

    def test_counters(self):
        sim, shaper, sink = make_shaper(sigma=500.0, rho=1000.0)
        shaper.receive(Packet(0, 500.0, 0.0))
        shaper.receive(Packet(0, 500.0, 0.0))
        # One passed at once on the full bucket, one waits for tokens.
        assert len(sink.arrivals) == 1
        sim.run()
        assert len(sink.arrivals) == 2


class TestOutputConformance:
    def test_output_satisfies_envelope(self):
        # Blast 20 packets at t=0; output must satisfy eq. (2).
        sim, shaper, sink = make_shaper(sigma=1500.0, rho=2000.0)
        for _ in range(20):
            shaper.receive(Packet(0, 500.0, 0.0))
        sim.run()
        meter = TokenBucketMeter(1500.0 + 1e-6, 2000.0)
        assert all(meter.observe(t, s) for t, s in sink.arrivals)


class TestValidation:
    def test_oversized_packet_raises(self):
        sim, shaper, _ = make_shaper(sigma=400.0)
        with pytest.raises(SimulationError):
            shaper.receive(Packet(0, 500.0, 0.0))

    def test_bad_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            LeakyBucketShaper(sim, 0.0, 100.0, None)
        with pytest.raises(ConfigurationError):
            LeakyBucketShaper(sim, 100.0, 0.0, None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["sigma", "rho"])
    def test_non_finite_parameters_rejected(self, field, bad):
        params = {"sigma": 1000.0, "rho": 1000.0, field: bad}
        with pytest.raises(ConfigurationError, match=f"{field} must be positive and finite"):
            LeakyBucketShaper(Simulator(), params["sigma"], params["rho"], None)


class TestTokenBucketMeter:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["sigma", "rho"])
    def test_non_finite_parameters_rejected(self, field, bad):
        # A NaN rate refilled the bucket at every arrival (all conformant);
        # a NaN bucket made every arrival non-conformant.
        params = {"sigma": 1000.0, "rho": 1000.0, field: bad}
        with pytest.raises(ConfigurationError, match="positive and finite"):
            TokenBucketMeter(params["sigma"], params["rho"])

    def test_conformant_stream_accepted(self):
        meter = TokenBucketMeter(1000.0, 1000.0)
        assert meter.observe(0.0, 1000.0)
        assert meter.observe(1.0, 1000.0)

    def test_burst_beyond_sigma_flagged(self):
        meter = TokenBucketMeter(1000.0, 1000.0)
        assert meter.observe(0.0, 1000.0)
        assert not meter.observe(0.0, 1.0)

    def test_violations_debit_the_bucket(self):
        meter = TokenBucketMeter(1000.0, 1000.0)
        meter.observe(0.0, 2000.0)  # non-conformant, tokens -> -1000
        # One second later tokens are back to 0 only; this 500-byte
        # arrival is still non-conformant and debits to -500.
        assert not meter.observe(1.0, 500.0)
        # The debt from that violation delays recovery: at t=2.0 tokens
        # are back to 500, exactly enough.
        assert meter.observe(2.0, 500.0)

    def test_burst_potential_caps_at_sigma(self):
        meter = TokenBucketMeter(1000.0, 1000.0)
        assert meter.burst_potential(100.0) == 1000.0

    def test_burst_potential_after_arrival(self):
        meter = TokenBucketMeter(1000.0, 500.0)
        meter.observe(0.0, 600.0)
        assert meter.burst_potential(0.0) == pytest.approx(400.0)
        assert meter.burst_potential(1.0) == pytest.approx(900.0)

    def test_time_going_backwards_raises(self):
        meter = TokenBucketMeter(1000.0, 1000.0)
        meter.observe(5.0, 100.0)
        with pytest.raises(SimulationError):
            meter.observe(4.0, 100.0)
