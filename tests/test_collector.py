"""Statistics collection."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.collector import FlowStats, StatsCollector


class TestFlowStats:
    def test_loss_fraction(self):
        stats = FlowStats(offered_packets=10, offered_bytes=1000.0,
                          dropped_packets=2, dropped_bytes=200.0)
        assert stats.loss_fraction == pytest.approx(0.2)

    def test_loss_fraction_idle_flow(self):
        assert FlowStats().loss_fraction == 0.0

    def test_mean_delay(self):
        stats = FlowStats(departed_packets=4, delay_sum=2.0)
        assert stats.mean_delay == pytest.approx(0.5)

    def test_mean_delay_no_departures(self):
        assert FlowStats().mean_delay == 0.0

    def test_accepted_packets(self):
        stats = FlowStats(offered_packets=10, dropped_packets=3)
        assert stats.accepted_packets == 7


class TestCollector:
    def test_counters_accumulate(self):
        collector = StatsCollector()
        collector.on_offered(0, 500.0, 1.0)
        collector.on_drop(0, 500.0, 1.0)
        collector.on_offered(0, 500.0, 2.0)
        collector.on_depart(0, 500.0, 0.01, 2.5)
        stats = collector.flows[0]
        assert stats.offered_packets == 2
        assert stats.dropped_packets == 1
        assert stats.departed_packets == 1
        assert stats.delay_max == 0.01

    def test_warmup_filters_events(self):
        collector = StatsCollector(warmup=10.0)
        collector.on_offered(0, 500.0, 5.0)
        collector.on_offered(0, 500.0, 15.0)
        assert collector.flows[0].offered_packets == 1

    def test_negative_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            StatsCollector(warmup=-1.0)

    def test_nan_warmup_rejected(self):
        with pytest.raises(ConfigurationError):
            StatsCollector(warmup=float("nan"))

    def test_each_offered_flow_gets_an_entry(self):
        collector = StatsCollector()
        collector.on_offered(5, 1.0, 0.0)
        collector.on_offered(1, 1.0, 0.0)
        assert collector.flows.keys() == {1, 5}


class TestDelayHistograms:
    def test_bins_ride_on_flow_stats_outside_equality_and_repr(self):
        collector = StatsCollector(delay_histograms=True)
        collector.on_depart(0, 500.0, 0.01, 1.0)
        stats = collector.flows[0]
        assert sum(stats.bins) == 1
        plain = FlowStats(departed_packets=1, departed_bytes=500.0, delay_sum=0.01,
                          delay_max=0.01)
        assert stats == plain and plain.bins is None
        assert repr(stats) == repr(plain)

    def test_disabled_by_default(self):
        collector = StatsCollector()
        with pytest.raises(ConfigurationError):
            collector.delay_histogram(0)

    def test_records_departure_delays(self):
        collector = StatsCollector(delay_histograms=True)
        collector.on_depart(0, 500.0, 0.010, 1.0)
        collector.on_depart(0, 500.0, 0.020, 2.0)
        histogram = collector.delay_histogram(0)
        assert histogram.count == 2
        assert histogram.mean == pytest.approx(0.015)

    def test_warmup_also_filters_histogram(self):
        collector = StatsCollector(warmup=10.0, delay_histograms=True)
        collector.on_depart(0, 500.0, 0.010, 5.0)
        assert collector.delay_histogram(0).count == 0

    def test_percentile_available(self):
        collector = StatsCollector(delay_histograms=True)
        for i in range(100):
            collector.on_depart(0, 500.0, 0.001 * (i + 1), 1.0)
        p50 = collector.delay_histogram(0).percentile(50)
        assert p50 == pytest.approx(0.05, rel=0.3)


class TestAggregation:
    def make_collector(self):
        collector = StatsCollector()
        collector.on_offered(0, 1000.0, 0.0)
        collector.on_depart(0, 800.0, 0.1, 1.0)
        collector.on_offered(1, 1000.0, 0.0)
        collector.on_drop(1, 500.0, 0.0)
        collector.on_depart(1, 500.0, 0.1, 1.0)
        return collector

    def test_total_departed_all_flows(self):
        assert self.make_collector().total_departed_bytes() == 1300.0

    def test_total_departed_subset(self):
        assert self.make_collector().total_departed_bytes([1]) == 500.0

    def test_subset_with_unknown_flow(self):
        assert self.make_collector().total_departed_bytes([1, 42]) == 500.0

    def test_throughput(self):
        assert self.make_collector().throughput(duration=2.0) == pytest.approx(650.0)

    def test_throughput_requires_positive_duration(self):
        with pytest.raises(ConfigurationError):
            self.make_collector().throughput(0.0)

    def test_loss_fraction_all(self):
        assert self.make_collector().loss_fraction() == pytest.approx(500.0 / 2000.0)

    def test_loss_fraction_subset(self):
        assert self.make_collector().loss_fraction([0]) == 0.0
        assert self.make_collector().loss_fraction([1]) == pytest.approx(0.5)

    def test_loss_fraction_idle(self):
        assert StatsCollector().loss_fraction() == 0.0
