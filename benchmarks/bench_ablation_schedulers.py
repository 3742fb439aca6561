"""Ablation (ours): scheduler cost versus QoS on the Table-1 workload.

The paper's whole premise is a cost/guarantee trade-off: WFQ sorts per
packet over all flows; the hybrid sorts over k queues; FIFO sorts
nothing.  This ablation runs the same workload and buffer policy under
FIFO, SCFQ, WFQ and the 3-queue hybrid, reporting QoS metrics alongside
the measured wall-clock per simulated packet — a direct (if
Python-flavoured) rendition of the scalability argument.
"""

import time

from benchmarks.conftest import build_port, scheme_build
from repro.experiments.report import format_table
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import (
    CASE1_GROUPS,
    LINK_RATE,
    TABLE1_CONFORMANT,
    table1_flows,
)
from repro.sched.rpq import RPQScheduler
from repro.units import mbytes

BUFFER = mbytes(2.0)
SIM_TIME = 8.0
SEED = 31
FLOWS = table1_flows()


def _scheme(scheme):
    # Only the hybrid reads the grouping.
    return scheme_build(scheme, FLOWS, BUFFER, LINK_RATE, groups=CASE1_GROUPS)


def _rpq(sim):
    """RPQ [10] over the FIFO scheme's thresholds.

    Deadline class from the flow's natural burst-drain time sigma/rho,
    quantised at delta = 100 ms (coarse EDF).
    """
    delta = 0.1
    class_of = {
        flow.flow_id: max(0, round((flow.bucket / flow.token_rate) / delta) - 1)
        for flow in FLOWS
    }
    _, manager = _scheme(Scheme.FIFO_THRESHOLD)(sim)
    return RPQScheduler(sim, delta, class_of), manager


def _run(build):
    sim, port, collector = build_port(
        FLOWS, LINK_RATE, build, seed=SEED, sim_time=SIM_TIME
    )
    started = time.perf_counter()
    sim.run(until=SIM_TIME)
    elapsed = time.perf_counter() - started
    duration = 0.9 * SIM_TIME
    packets = port.transmitted_packets
    return {
        "util": 100.0 * collector.throughput(duration) / LINK_RATE,
        "conf_loss": 100.0 * collector.loss_fraction(TABLE1_CONFORMANT),
        "ratio": (
            collector.flows[8].departed_bytes
            / max(collector.flows[6].departed_bytes, 1.0)
        ),
        "us_per_pkt": 1e6 * elapsed / max(packets, 1),
    }


def _sweep():
    return {
        "FIFO": _run(_scheme(Scheme.FIFO_THRESHOLD)),
        "RPQ [10]": _run(_rpq),
        "SCFQ": _run(_scheme(Scheme.SCFQ_THRESHOLD)),
        "WFQ": _run(_scheme(Scheme.WFQ_THRESHOLD)),
        "Hybrid (k=3)": _run(_scheme(Scheme.HYBRID_THRESHOLD)),
    }


def test_ablation_schedulers(publish):
    results = _sweep()
    rows = [
        [name, f"{r['util']:.1f}", f"{r['conf_loss']:.2f}",
         f"{r['ratio']:.1f}", f"{r['us_per_pkt']:.1f}"]
        for name, r in results.items()
    ]
    table = format_table(
        ["scheduler (+ thresholds)", "utilisation (%)", "conformant loss (%)",
         "flow8/flow6 bytes", "us / packet (sim)"],
        rows,
    )
    publish(
        "ablation_schedulers",
        "Ablation: scheduler choice under identical threshold management "
        "(Table-1, B = 2 MB)\n" + table,
    )

    # All scheduler choices protect conformant flows under thresholds —
    # the paper's point that admission control does the heavy lifting.
    for name, r in results.items():
        assert r["conf_loss"] < 0.5, name
        assert r["util"] > 75.0, name
