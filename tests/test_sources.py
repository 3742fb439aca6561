"""Traffic sources: on-off, CBR, greedy, trace."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.sources import CBRSource, GreedySource, OnOffSource


def gaps(times):
    return [later - earlier for earlier, later in zip(times, times[1:])]


class Recorder:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


class TestCBRSource:
    def test_emits_at_constant_spacing(self):
        sim = Simulator()
        sink = Recorder()
        CBRSource(sim, 0, rate=1000.0, sink=sink, packet_size=100.0, until=1.0)
        sim.run(until=1.0)
        times = [p.created for p in sink.packets]
        assert times[0] == 0.0
        deltas = gaps(times)
        assert deltas == pytest.approx([0.1] * len(deltas))

    def test_rate_achieved(self):
        sim = Simulator()
        sink = Recorder()
        CBRSource(sim, 0, rate=1000.0, sink=sink, packet_size=100.0, until=10.0)
        sim.run(until=10.0)
        emitted = sum(p.size for p in sink.packets)
        assert emitted == pytest.approx(10_000.0, rel=0.02)

    def test_until_stops_emission(self):
        sim = Simulator()
        sink = Recorder()
        CBRSource(sim, 0, rate=1000.0, sink=sink, packet_size=100.0, until=0.5)
        sim.run()
        assert all(p.created <= 0.5 for p in sink.packets)

    def test_start_offset(self):
        sim = Simulator()
        sink = Recorder()
        CBRSource(sim, 0, rate=1000.0, sink=sink, packet_size=100.0,
                  start=2.0, until=3.0)
        sim.run(until=3.0)
        assert sink.packets[0].created == 2.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            CBRSource(Simulator(), 0, rate=0.0, sink=Recorder())


class TestGreedySource:
    def test_offers_more_than_link_rate(self):
        sim = Simulator()
        sink = Recorder()
        GreedySource(sim, 0, link_rate=1000.0, sink=sink, packet_size=100.0,
                     until=1.0)
        sim.run(until=1.0)
        offered = sum(p.size for p in sink.packets)
        assert offered > 1000.0


class TestOnOffSource:
    def test_long_run_average_rate(self):
        sim = Simulator()
        sink = Recorder()
        OnOffSource(
            sim, 0, peak_rate=10_000.0, avg_rate=2_000.0, mean_burst=2_000.0,
            sink=sink, rng=Generator(SeedSequence(42)), packet_size=100.0,
            until=200.0,
        )
        sim.run(until=200.0)
        rate = sum(p.size for p in sink.packets) / 200.0
        assert rate == pytest.approx(2_000.0, rel=0.25)

    def test_peak_rate_respected_within_bursts(self):
        sim = Simulator()
        sink = Recorder()
        OnOffSource(
            sim, 0, peak_rate=10_000.0, avg_rate=2_000.0, mean_burst=2_000.0,
            sink=sink, rng=Generator(SeedSequence(7)), packet_size=100.0,
            until=50.0,
        )
        sim.run(until=50.0)
        times = [p.created for p in sink.packets]
        spacing = 100.0 / 10_000.0
        min_gap = min(gaps(times))
        assert min_gap >= spacing - 1e-9

    def test_cbr_degenerate_when_avg_equals_peak(self):
        sim = Simulator()
        sink = Recorder()
        OnOffSource(
            sim, 0, peak_rate=1_000.0, avg_rate=1_000.0, mean_burst=1_000.0,
            sink=sink, rng=Generator(SeedSequence(0)), packet_size=100.0,
            until=5.0,
        )
        sim.run(until=5.0)
        rate = sum(p.size for p in sink.packets) / 5.0
        assert rate == pytest.approx(1_000.0, rel=0.05)

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = Simulator()
            sink = Recorder()
            OnOffSource(
                sim, 0, 10_000.0, 2_000.0, 2_000.0, sink,
                Generator(SeedSequence(seed)), packet_size=100.0, until=20.0,
            )
            sim.run(until=20.0)
            return [round(p.created, 9) for p in sink.packets]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_mean_burst_smaller_than_packet_rejected(self):
        with pytest.raises(ConfigurationError):
            OnOffSource(
                Simulator(), 0, 1_000.0, 500.0, 50.0, Recorder(),
                Generator(SeedSequence(0)), packet_size=100.0,
            )

    @pytest.mark.parametrize("mean_burst", [float("nan"), float("inf")])
    def test_non_finite_mean_burst_rejected(self, mean_burst):
        # A NaN burst never turned the source off (it sent at peak rate);
        # an infinite one divided by zero at the first emission.
        with pytest.raises(ConfigurationError, match="mean burst"):
            OnOffSource(
                Simulator(), 0, 1_000.0, 500.0, mean_burst, Recorder(),
                Generator(SeedSequence(0)), packet_size=100.0,
            )

    def test_avg_above_peak_rejected(self):
        with pytest.raises(ConfigurationError):
            OnOffSource(
                Simulator(), 0, 1_000.0, 2_000.0, 1_000.0, Recorder(),
                Generator(SeedSequence(0)),
            )

    def test_mean_burst_size_approximately_respected(self):
        sim = Simulator()
        sink = Recorder()
        source = OnOffSource(
            sim, 0, peak_rate=100_000.0, avg_rate=10_000.0, mean_burst=1_000.0,
            sink=sink, rng=Generator(SeedSequence(11)), packet_size=100.0,
            until=300.0,
        )
        sim.run(until=300.0)
        times = [p.created for p in sink.packets]
        # A gap much larger than the peak spacing separates bursts.
        burst_count = 1 + sum(gap > 5 * (100.0 / 100_000.0) for gap in gaps(times))
        mean_burst = sum(p.size for p in sink.packets) / burst_count
        assert mean_burst == pytest.approx(1_000.0, rel=0.3)


class TestOnOffDraws:
    """The source's randomness is scalar draws from the given generator."""

    def test_stream_is_interleaved_scalar_draws(self):
        # Pins the draw order the equivalence goldens depend on: one
        # exponential for the initial phase, then geometric burst length
        # and exponential OFF period alternating, all from ``rng`` itself.
        peak, avg, burst, size, until = 4000.0, 1000.0, 1000.0, 500.0, 2.0
        sim = Simulator()
        sink = Recorder()
        OnOffSource(
            sim, 0, peak_rate=peak, avg_rate=avg, mean_burst=burst, sink=sink,
            rng=Generator(SeedSequence(5)), packet_size=size, until=until,
        )
        sim.run(until=until)

        rng = Generator(SeedSequence(5))
        spacing = size / peak
        mean_off = (burst / peak) * (peak / avg - 1.0)
        burst_p = 1.0 / (burst / size)
        expected = []
        now = 0.0 + rng.exponential(mean_off)
        while now < until:
            for _ in range(rng.geometric(burst_p) - 1):
                expected.append(now)
                now = now + spacing
                if now >= until:
                    break
            else:
                expected.append(now)
                now = now + (spacing + rng.exponential(mean_off))
        assert expected
        assert [p.created for p in sink.packets] == expected


class TestDelaysThatCannotAdvanceTheClock:
    """Sizes and rates must be positive and finite: an emission returns
    its gap to the next one, and a zero gap returned for ever would spin
    the clock at one instant."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": float("inf")},
            {"rate": float("nan")},
            {"rate": 1000.0, "packet_size": 0.0},
            {"rate": 1000.0, "packet_size": -500.0},
            {"rate": 1000.0, "packet_size": float("inf")},
        ],
    )
    def test_cbr_refuses(self, kwargs):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            CBRSource(Simulator(), 0, sink=Recorder(), **kwargs)

    def test_greedy_refuses_an_infinite_link(self):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            GreedySource(Simulator(), 0, link_rate=float("inf"), sink=Recorder())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"packet_size": 0.0},
            {"packet_size": -500.0},
            {"packet_size": float("nan")},
            {"peak_rate": float("inf")},
            {"peak_rate": float("inf"), "avg_rate": float("inf")},
            {"avg_rate": float("nan")},
        ],
    )
    def test_on_off_refuses(self, kwargs):
        params = dict(peak_rate=1_000.0, avg_rate=500.0, mean_burst=1_000.0)
        params.update(kwargs)
        with pytest.raises(ConfigurationError, match="positive and finite"):
            OnOffSource(
                Simulator(), 0, sink=Recorder(), rng=Generator(SeedSequence(0)),
                **params,
            )
