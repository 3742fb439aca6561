"""Ablation (ours): buffer-manager shoot-out on the Table-1 workload.

Not a paper figure — this compares the paper's two schemes against the
related-work policies it cites (Dynamic Threshold, RED, FRED) and plain
tail drop, all under FIFO scheduling with a 1 MB buffer.  It quantifies
the design point the paper argues for: per-flow reservations are what
deliver heterogeneous guarantees; flow-agnostic AQM cannot.
"""

from benchmarks.conftest import build_port
from repro.core.dynamic_threshold import DynamicThresholdManager
from repro.core.fred import FREDManager
from repro.core.red import REDManager
from repro.experiments.report import format_table
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import (
    LINK_RATE,
    TABLE1_CONFORMANT,
    table1_flows,
)
from repro.sched.fifo import FIFOScheduler
from repro.sim.rng import Generator, SeedSequence
from repro.units import mbytes

BUFFER = mbytes(1.0)
SIM_TIME = 4.0
SEED = 11
#: The sharing scheme's H; the other schemes do not read it.
HEADROOM = mbytes(0.5)
#: The paper's schemes: rows that need only the run's result.
SCHEMES = {
    "tail drop (no mgmt)": Scheme.FIFO_NONE,
    "fixed thresholds (paper)": Scheme.FIFO_THRESHOLD,
    "sharing H=0.5MB (paper)": Scheme.FIFO_SHARING,
}


def _related_work():
    """The cited policies no ``Scheme`` builds: sim -> manager under FIFO."""
    mean_tx = 500.0 / LINK_RATE
    return {
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


def _measures(collector):
    util = 100.0 * collector.throughput(0.9 * SIM_TIME) / LINK_RATE
    return util, 100.0 * collector.loss_fraction(TABLE1_CONFORMANT)


def _run_all():
    flows = table1_flows()
    results = {
        name: _measures(
            run_scenario(
                flows, scheme, BUFFER, sim_time=SIM_TIME, seed=SEED, headroom=HEADROOM
            ).end_to_end
        )
        for name, scheme in SCHEMES.items()
    }
    for name, manager in _related_work().items():
        sim, _, collector = build_port(
            flows, LINK_RATE, lambda sim: (FIFOScheduler(), manager(sim)),
            seed=SEED, sim_time=SIM_TIME,
        )
        sim.run(until=SIM_TIME)
        results[name] = _measures(collector)
    return results


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
