"""Ablation (ours): buffer-manager shoot-out on the Table-1 workload.

Not a paper figure — this compares the paper's two schemes against the
related-work policies it cites (Dynamic Threshold, RED, FRED) and plain
tail drop, all under FIFO scheduling with a 1 MB buffer.  It quantifies
the design point the paper argues for: per-flow reservations are what
deliver heterogeneous guarantees; flow-agnostic AQM cannot.
"""

import pytest

from repro.core.dynamic_threshold import DynamicThresholdManager
from repro.core.fred import FREDManager
from repro.core.red import REDManager
from repro.core.shared_headroom import SharedHeadroomManager
from repro.core.tail_drop import TailDropManager
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.thresholds import compute_thresholds
from repro.experiments.report import format_table
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import (
    LINK_RATE,
    TABLE1_CONFORMANT,
    table1_flows,
)
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import OnOffSource
from repro.units import mbytes

BUFFER = mbytes(1.0)
SIM_TIME = 4.0
SEED = 11


def _run_with_manager(manager_factory):
    """Run the Table-1 workload through an arbitrary manager under FIFO."""
    flows = table1_flows()
    sim = Simulator()
    manager = manager_factory(sim)
    collector = StatsCollector(warmup=0.1 * SIM_TIME)
    port = OutputPort(sim, LINK_RATE, FIFOScheduler(), manager, collector)
    seed_seq = SeedSequence(SEED).spawn(len(flows))
    for flow, child in zip(flows, seed_seq):
        sink = port
        if flow.conformant:
            sink = LeakyBucketShaper(sim, flow.bucket, flow.token_rate, port)
        OnOffSource(
            sim, flow.flow_id, flow.peak_rate, flow.avg_rate, flow.mean_burst,
            sink, Generator(child), until=SIM_TIME,
        )
    sim.run(until=SIM_TIME)
    duration = 0.9 * SIM_TIME
    util = 100.0 * collector.throughput(duration) / LINK_RATE
    loss = 100.0 * collector.loss_fraction(TABLE1_CONFORMANT)
    return util, loss


def _factories():
    flows = table1_flows()
    profiles = {flow.flow_id: flow.profile for flow in flows}
    thresholds = compute_thresholds(profiles, BUFFER, LINK_RATE)
    mean_tx = 500.0 / LINK_RATE
    return {
        "tail drop (no mgmt)": lambda sim: TailDropManager(BUFFER),
        "fixed thresholds (paper)": lambda sim: FixedThresholdManager(
            BUFFER, thresholds
        ),
        "sharing H=0.5MB (paper)": lambda sim: SharedHeadroomManager(
            BUFFER, thresholds, mbytes(0.5)
        ),
        "dynamic threshold [1]": lambda sim: DynamicThresholdManager(BUFFER),
        "RED [3]": lambda sim: REDManager(
            BUFFER, 0.25 * BUFFER, 0.75 * BUFFER,
            Generator(SeedSequence(3)), sim, mean_tx_time=mean_tx,
        ),
        "FRED [5]": lambda sim: FREDManager(
            BUFFER, 0.25 * BUFFER, 0.75 * BUFFER,
            Generator(SeedSequence(4)), sim,
            minq=BUFFER / 32, maxq=BUFFER / 4, mean_tx_time=mean_tx,
        ),
    }


def _run_all():
    return {name: _run_with_manager(factory) for name, factory in _factories().items()}


def test_ablation_buffer_managers(publish):
    results = _run_all()
    rows = [
        [name, f"{util:.1f}", f"{loss:.2f}"]
        for name, (util, loss) in results.items()
    ]
    table = format_table(
        ["buffer manager", "utilisation (%)", "conformant loss (%)"], rows
    )
    publish(
        "ablation_managers",
        "Ablation: buffer managers under FIFO, Table-1 workload, B = 1 MB\n" + table,
    )

    # The paper's reservation-aware schemes protect conformant flows...
    assert results["fixed thresholds (paper)"][1] < 0.5
    assert results["sharing H=0.5MB (paper)"][1] < 0.5
    # ... better than the flow-agnostic baselines under this overload.
    assert results["tail drop (no mgmt)"][1] > results["fixed thresholds (paper)"][1]
    # Everyone achieves some utilisation.
    for name, (util, _loss) in results.items():
        assert util > 50.0, name
