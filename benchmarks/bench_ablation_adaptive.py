"""Ablation (ours): the adaptive/non-adaptive sharing model.

Implements the experiment sketched in the paper's conclusion: tag the
moderately non-conformant flows as *adaptive* (they would back off under
loss) and the aggressive flows as *non-adaptive*, then sweep the
non-adaptive hole share.  Expectation: shrinking the share moves excess
bandwidth from the aggressive class to the adaptive class without
touching conformant-flow protection.
"""

from benchmarks.conftest import build_port
from repro.core.adaptive import AdaptiveSharingManager
from repro.core.thresholds import compute_thresholds
from repro.experiments.report import format_table
from repro.experiments.workloads import (
    LINK_RATE,
    TABLE2_AGGRESSIVE,
    TABLE2_CONFORMANT,
    TABLE2_MODERATE,
    table2_flows,
)
from repro.sched.fifo import FIFOScheduler
from repro.units import mbytes, to_mbps

BUFFER = mbytes(2.0)
SIM_TIME = 8.0
SEED = 21


def _run(nonadaptive_share):
    flows = table2_flows()
    profiles = {flow.flow_id: flow.profile for flow in flows}
    manager = AdaptiveSharingManager(
        BUFFER, compute_thresholds(profiles, BUFFER, LINK_RATE),
        headroom=mbytes(0.25),
        adaptive_flows=set(TABLE2_MODERATE) | set(TABLE2_CONFORMANT),
        nonadaptive_share=nonadaptive_share,
    )
    sim, _, collector = build_port(
        flows, LINK_RATE, lambda sim: (FIFOScheduler(), manager),
        seed=SEED, sim_time=SIM_TIME,
    )
    sim.run(until=SIM_TIME)
    duration = 0.9 * SIM_TIME
    return {
        "conformant_loss": 100.0 * collector.loss_fraction(TABLE2_CONFORMANT),
        "moderate_rate": to_mbps(
            collector.throughput(duration, TABLE2_MODERATE)
        ),
        "aggressive_rate": to_mbps(
            collector.throughput(duration, TABLE2_AGGRESSIVE)
        ),
        "utilization": 100.0 * collector.throughput(duration) / LINK_RATE,
    }


def _sweep():
    return {share: _run(share) for share in (0.0, 0.1, 0.25, 0.5, 1.0)}


def test_ablation_adaptive_sharing(publish):
    results = _sweep()
    rows = [
        [f"{share:.2f}", f"{r['utilization']:.1f}", f"{r['conformant_loss']:.2f}",
         f"{r['moderate_rate']:.1f}", f"{r['aggressive_rate']:.1f}"]
        for share, r in results.items()
    ]
    table = format_table(
        ["non-adaptive share", "utilisation (%)", "conformant loss (%)",
         "adaptive class (Mb/s)", "aggressive class (Mb/s)"],
        rows,
    )
    publish(
        "ablation_adaptive",
        "Ablation: adaptive vs non-adaptive sharing (Table-2 workload, "
        "FIFO, B = 2 MB, H = 0.25 MB)\n" + table,
    )

    # Conformant flows stay protected at every setting.
    for r in results.values():
        assert r["conformant_loss"] < 0.5
    # Cutting the non-adaptive share reduces the aggressive class's take.
    assert results[0.0]["aggressive_rate"] < results[1.0]["aggressive_rate"]
    # The aggressive class keeps (close to) its 3 Mb/s reservation.
    assert results[0.0]["aggressive_rate"] > 2.4
