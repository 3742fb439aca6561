"""Example-1 occupancy trajectory: fluid analysis vs packet simulation.

Section 2.1's fluid analysis predicts that the conformant flow's buffer
occupancy, sampled at the clearing instants t_i, climbs monotonically
towards its threshold B rho_1 / R without ever crossing it.  This bench
samples the packet simulator's occupancy and compares the envelope
against the fluid prediction.
"""

import pytest

from repro.analysis.fluid import two_flow_fluid
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.thresholds import flow_threshold
from repro.experiments.report import format_table
from repro.metrics.collector import StatsCollector
from repro.obs.timeline import Timeline
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.traffic.adversarial import ThresholdFillingSource
from repro.traffic.sources import CBRSource

LINK = 1_000_000.0
RHO1 = 250_000.0
BUFFER = 100_000.0
PKT = 500.0
HORIZON = 10.0


def _run():
    trajectory = two_flow_fluid(RHO1, BUFFER, LINK, n_intervals=10)
    threshold1 = flow_threshold(0.0, RHO1, BUFFER, LINK) + PKT
    b2 = BUFFER - threshold1
    manager = FixedThresholdManager(BUFFER, {1: threshold1, 2: b2})
    sim = Simulator()
    collector = StatsCollector()
    port = OutputPort(sim, LINK, FIFOScheduler(), manager, collector)
    CBRSource(sim, 1, RHO1, port, packet_size=PKT, until=HORIZON)
    ThresholdFillingSource(sim, 2, port, b2, packet_size=PKT, until=HORIZON)
    timeline = Timeline(0.01)
    timeline.probe("occ1", lambda: manager.occupancy(1))
    timeline.install(sim, until=HORIZON)
    sim.run(until=HORIZON)
    occupancy = timeline.series("occ1")
    return trajectory, occupancy, threshold1, collector.flows[1].dropped_packets


def test_example1_occupancy_trajectory(publish):
    trajectory, occupancy, threshold1, drops = _run()
    times, values = occupancy.times(), occupancy.values()
    rows = []
    for interval in trajectory.intervals:
        # Simulated occupancy at the fluid clearing instant t_i.
        sample_index = min(
            range(len(times)), key=lambda i: abs(times[i] - interval.end)
        )
        rows.append([
            str(interval.index),
            f"{interval.end:.3f}",
            f"{interval.occupancy_flow1_end:,.0f}",
            f"{values[sample_index]:,.0f}",
        ])
    table = format_table(
        ["interval", "t_i (s)", "fluid Q1(t_i) (B)", "simulated Q1 (B)"], rows
    )
    publish(
        "analysis_occupancy",
        "Example 1: flow-1 occupancy at clearing instants, fluid vs packet sim\n"
        f"[threshold B rho/R + pkt = {threshold1:,.0f} B, flow-1 drops: {drops}]\n"
        + table,
    )

    # Envelope: the simulated occupancy never exceeds the threshold.
    assert max(values) <= threshold1 + 1e-6
    # Convergence: the late-time occupancy approaches the fluid limit
    # (within a few packets of B rho / R).
    steady = values[len(values) // 2:]
    fluid_limit = trajectory.threshold_flow1
    assert max(steady) > fluid_limit - 6 * PKT
    # Losslessness throughout.
    assert drops == 0
