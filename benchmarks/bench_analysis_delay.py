"""Section-1 delay argument: worst-case FIFO delay across link speeds.

Regenerates the paper's scalability argument quantitatively: "even the
worst case delays are likely to be sufficiently small ... the worst case
delay caused by a 1MByte buffer feeding an OC-48 link (2.4Gbits/sec) is
less than 3.5msec".  The table sweeps buffer sizes across SONET rates;
a saturated simulation confirms the bound is attained but not exceeded.
"""

import pytest

from repro.analysis.delay import OC3, OC12, OC48, OC192, worst_case_fifo_delay
from repro.core.tail_drop import TailDropManager
from repro.experiments.report import format_table
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.traffic.sources import GreedySource
from repro.units import mbytes, to_mbps

RATES = [("OC-3", OC3), ("OC-12", OC12), ("OC-48", OC48), ("OC-192", OC192)]
BUFFERS_MB = [0.25, 0.5, 1.0, 2.0, 5.0]


def _measure_saturated_delay():
    """Max delay of a saturated 100 kB buffer on a scaled-down link."""
    link = 1_000_000.0
    buffer_size = 100_000.0
    sim = Simulator()
    collector = StatsCollector()
    port = OutputPort(sim, link, FIFOScheduler(), TailDropManager(buffer_size),
                      collector)
    GreedySource(sim, 0, link, port, packet_size=500.0, until=10.0)
    sim.run(until=12.0)
    bound = worst_case_fifo_delay(buffer_size, link) + 500.0 / link
    return collector.flows[0].delay_max, bound


def _compute():
    table = {
        name: [worst_case_fifo_delay(mbytes(mb), rate) for mb in BUFFERS_MB]
        for name, rate in RATES
    }
    measured, bound = _measure_saturated_delay()
    return table, measured, bound


def test_delay_bounds_across_link_speeds(publish):
    table, measured, bound = _compute()
    rows = []
    for i, mb in enumerate(BUFFERS_MB):
        rows.append([f"{mb:g}"] + [f"{1e3 * table[name][i]:.3f}" for name, _ in RATES])
    rendered = format_table(
        ["buffer (MB)"] + [f"{name} ({to_mbps(rate):.0f} Mb/s)" for name, rate in RATES],
        rows,
    )
    publish(
        "analysis_delay",
        "Worst-case FIFO delay (ms) = B / R across SONET rates\n"
        f"[saturated-sim check: measured max delay {1e3 * measured:.3f} ms "
        f"vs bound {1e3 * bound:.3f} ms]\n" + rendered,
    )

    # The paper's example: 1 MB @ OC-48 < 3.5 ms.
    oc48_1mb = table["OC-48"][BUFFERS_MB.index(1.0)]
    assert oc48_1mb < 3.5e-3
    # Simulation attains but never exceeds the bound.
    assert measured <= bound + 1e-9
    assert measured > 0.9 * worst_case_fifo_delay(100_000.0, 1_000_000.0)
