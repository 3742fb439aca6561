"""Example 1: fluid dynamics of a conformant flow versus a greedy flow.

Regenerates the interval-by-interval service rates of Section 2.1 and
cross-validates the fluid limits against the packet-level simulator: a
CBR flow at rho_1 with threshold B rho_1 / R against a greedy flow
converges to throughput rho_1 with zero loss.
"""

import pytest

from repro.analysis.fluid import two_flow_fluid
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.thresholds import flow_threshold
from repro.experiments.report import format_table
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.traffic.sources import CBRSource, GreedySource

LINK = 1_000_000.0
RHO1 = 250_000.0
BUFFER = 100_000.0
PKT = 500.0


def _fluid_and_simulation():
    trajectory = two_flow_fluid(RHO1, BUFFER, LINK, n_intervals=12)

    threshold = flow_threshold(0.0, RHO1, BUFFER, LINK) + PKT
    manager = FixedThresholdManager(BUFFER, {1: threshold, 2: BUFFER - threshold})
    sim = Simulator()
    collector = StatsCollector(warmup=10.0)
    port = OutputPort(sim, LINK, FIFOScheduler(), manager, collector)
    CBRSource(sim, 1, RHO1, port, packet_size=PKT, until=40.0)
    GreedySource(sim, 2, LINK, port, packet_size=PKT, until=40.0)
    sim.run(until=40.0)
    measured_rate1 = collector.flows[1].departed_bytes / 30.0
    measured_rate2 = collector.flows[2].departed_bytes / 30.0
    dropped1 = collector.flows[1].dropped_packets
    return trajectory, measured_rate1, measured_rate2, dropped1


def test_example1_fluid_dynamics(publish):
    trajectory, rate1, rate2, dropped1 = _fluid_and_simulation()
    rows = [
        [str(iv.index), f"{iv.length:.4f}", f"{iv.rate_flow1:,.0f}",
         f"{iv.rate_flow2:,.0f}", f"{iv.occupancy_flow1_end:,.0f}"]
        for iv in trajectory.intervals
    ]
    rows.append(["limit", f"{trajectory.limit_length:.4f}",
                 f"{trajectory.limit_rate_flow1:,.0f}",
                 f"{trajectory.limit_rate_flow2:,.0f}",
                 f"{trajectory.threshold_flow1:,.0f}"])
    table = format_table(
        ["interval i", "l_i (s)", "R_i^1 (B/s)", "R_i^2 (B/s)", "Q_1(t_i) (B)"],
        rows,
    )
    publish(
        "analysis_example1",
        "Example 1: fluid dynamics, conformant (rho1 = 250 kB/s) vs greedy\n"
        f"[packet sim cross-check: flow1 rate {rate1:,.0f} B/s, "
        f"flow2 rate {rate2:,.0f} B/s, flow1 drops {dropped1}]\n" + table,
    )

    # Fluid: starvation in interval 1, convergence to the guarantee.
    assert trajectory.intervals[0].rate_flow1 == 0.0
    assert trajectory.intervals[-1].rate_flow1 == pytest.approx(RHO1, rel=1e-3)
    # Packet simulation agrees with the fluid limits.
    assert dropped1 == 0
    assert rate1 == pytest.approx(RHO1, rel=0.02)
    assert rate2 == pytest.approx(LINK - RHO1, rel=0.02)
