"""FRED buffer manager: per-flow protection on top of RED."""

from types import SimpleNamespace

import pytest

from repro.core.fred import FREDManager
from repro.errors import ConfigurationError
from repro.sim.rng import Generator, SeedSequence


def make_fred(capacity=20_000.0, min_th=2_000.0, max_th=8_000.0,
              minq=1_000.0, maxq=4_000.0, max_p=0.1, weight=1.0, seed=1):
    clock = SimpleNamespace(now=0.0)
    manager = FREDManager(
        capacity, min_th, max_th, Generator(SeedSequence(seed)), clock,
        minq=minq, maxq=maxq, max_p=max_p, weight=weight,
    )
    return manager, clock


class TestValidation:
    def test_minq_maxq_ordering(self):
        clock = SimpleNamespace(now=0.0)
        rng = Generator(SeedSequence(0))
        with pytest.raises(ConfigurationError):
            FREDManager(1000.0, 100.0, 400.0, rng, clock, minq=300.0, maxq=200.0)
        with pytest.raises(ConfigurationError):
            FREDManager(1000.0, 100.0, 400.0, rng, clock, minq=0.0, maxq=200.0)


class TestPerFlowCaps:
    def test_flow_capped_at_maxq(self):
        manager, _ = make_fred()
        while manager.try_admit(0, 1_000.0):
            pass
        assert manager.occupancy(0) <= 4_000.0

    def test_maxq_violations_accumulate_strikes(self):
        manager, _ = make_fred()
        while manager.try_admit(0, 1_000.0):
            pass
        assert manager._strikes.get(0, 0) >= 1

    def test_struck_flow_held_to_average_backlog(self):
        manager, _ = make_fred(minq=500.0)
        # Flow 0 misbehaves: hammer it until it collects strikes.
        for _ in range(10):
            manager.try_admit(0, 1_000.0)
        strikes = manager._strikes.get(0, 0)
        assert strikes > 1
        # Drain flow 0, then it may only rebuild up to avgcq.
        while manager.occupancy(0) > 0:
            manager.on_depart(0, 1_000.0)
        manager.try_admit(1, 1_000.0)
        while manager.try_admit(0, 100.0):
            pass
        # The struck flow stalls at the current average per-flow backlog,
        # far below the maxq cap a well-behaved flow would get.
        assert manager.occupancy(0) <= manager.average_per_flow_backlog() + 100.0
        assert manager.occupancy(0) < manager.maxq / 2

    def test_fragile_flow_protected_below_minq(self):
        # A low-rate flow under minq is accepted even when the average
        # queue sits in the RED drop band.
        manager, _ = make_fred(capacity=40_000.0, min_th=2_000.0,
                               max_th=30_000.0, minq=1_000.0, maxq=20_000.0)
        for flow in (1, 2, 3, 4, 5):
            while manager.occupancy(flow) < 4_000.0:
                if not manager.try_admit(flow, 1_000.0):
                    break
        assert manager.avg >= 2_000.0
        assert manager.try_admit(9, 500.0)


class TestActiveFlowAccounting:
    def test_active_flows_counted(self):
        manager, _ = make_fred()
        manager.try_admit(0, 1_000.0)
        manager.try_admit(1, 1_000.0)
        assert manager.active_flows() == 2
        manager.on_depart(0, 1_000.0)
        assert manager.active_flows() == 1

    def test_average_per_flow_backlog_floor(self):
        manager, _ = make_fred()
        assert manager.average_per_flow_backlog() >= 1.0

    def test_average_per_flow_backlog_tracks_avg(self):
        manager, _ = make_fred()
        manager.try_admit(0, 2_000.0)
        manager.try_admit(1, 2_000.0)
        # weight=1 -> avg equals pre-charge total of the last arrival.
        assert manager.average_per_flow_backlog() == pytest.approx(
            manager.avg / 2
        )
