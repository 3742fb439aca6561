"""Ablation (ours): scheduler cost versus QoS on the Table-1 workload.

The paper's whole premise is a cost/guarantee trade-off: WFQ sorts per
packet over all flows; the hybrid sorts over k queues; FIFO sorts
nothing.  This ablation runs the same workload and buffer policy under
FIFO, SCFQ, WFQ and the 3-queue hybrid, reporting QoS metrics alongside
the measured wall-clock per simulated packet — a direct (if
Python-flavoured) rendition of the scalability argument.
"""

import time

from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.hybrid import HybridBufferManager
from repro.core.thresholds import compute_thresholds, hybrid_flow_threshold
from repro.analysis.hybrid_opt import QueueRequirement, hybrid_min_buffers, queue_rates
from repro.experiments.report import format_table
from repro.experiments.workloads import (
    CASE1_GROUPS,
    LINK_RATE,
    TABLE1_CONFORMANT,
    table1_flows,
)
from repro.metrics.collector import StatsCollector
from repro.sched.fifo import FIFOScheduler
from repro.sched.hybrid import HybridScheduler
from repro.sched.rpq import RPQScheduler
from repro.sched.scfq import SCFQScheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import OnOffSource
from repro.units import mbytes, to_mbps

BUFFER = mbytes(2.0)
SIM_TIME = 8.0
SEED = 31


def _build_manager(sim, flows, hybrid):
    profiles = {flow.flow_id: flow.profile for flow in flows}
    if not hybrid:
        return FixedThresholdManager(
            BUFFER, compute_thresholds(profiles, BUFFER, LINK_RATE)
        )
    by_id = {flow.flow_id: flow for flow in flows}
    requirements = [
        QueueRequirement(
            sigma_hat=sum(by_id[i].bucket for i in group),
            rho_hat=sum(by_id[i].token_rate for i in group),
        )
        for group in CASE1_GROUPS
    ]
    min_buffers = hybrid_min_buffers(requirements, LINK_RATE)
    total = sum(min_buffers)
    queue_buffers = [BUFFER * b / total for b in min_buffers]
    managers = []
    class_of = {}
    for class_id, group in enumerate(CASE1_GROUPS):
        rho_hat = requirements[class_id].rho_hat
        thresholds = {
            i: hybrid_flow_threshold(
                by_id[i].bucket, by_id[i].token_rate, rho_hat, queue_buffers[class_id]
            )
            for i in group
        }
        managers.append(FixedThresholdManager(queue_buffers[class_id], thresholds))
        for i in group:
            class_of[i] = class_id
    return HybridBufferManager(class_of, managers)


def _run(name, scheduler_factory, hybrid=False):
    flows = table1_flows()
    sim = Simulator()
    scheduler = scheduler_factory(sim, flows)
    manager = _build_manager(sim, flows, hybrid)
    collector = StatsCollector(warmup=0.1 * SIM_TIME)
    port = OutputPort(sim, LINK_RATE, scheduler, manager, collector)
    seed_seq = SeedSequence(SEED).spawn(len(flows))
    for flow, child in zip(flows, seed_seq):
        sink = port
        if flow.conformant:
            sink = LeakyBucketShaper(sim, flow.bucket, flow.token_rate, port)
        OnOffSource(
            sim, flow.flow_id, flow.peak_rate, flow.avg_rate, flow.mean_burst,
            sink, Generator(child), until=SIM_TIME,
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
    wfq_weights = {flow.flow_id: flow.token_rate for flow in table1_flows()}

    def hybrid_factory(sim, flows):
        by_id = {flow.flow_id: flow for flow in flows}
        requirements = [
            QueueRequirement(
                sigma_hat=sum(by_id[i].bucket for i in group),
                rho_hat=sum(by_id[i].token_rate for i in group),
            )
            for group in CASE1_GROUPS
        ]
        rates = queue_rates(requirements, LINK_RATE)
        return HybridScheduler(sim, LINK_RATE, CASE1_GROUPS, rates)

    def rpq_factory(sim, flows):
        # Deadline class from the flow's natural burst-drain time
        # sigma/rho, quantised at delta = 100 ms (coarse EDF, see [10]).
        delta = 0.1
        class_of = {
            flow.flow_id: max(0, round((flow.bucket / flow.token_rate) / delta) - 1)
            for flow in flows
        }
        return RPQScheduler(sim, delta, class_of)

    return {
        "FIFO": _run("FIFO", lambda sim, flows: FIFOScheduler()),
        "RPQ [10]": _run("RPQ", rpq_factory),
        "SCFQ": _run("SCFQ", lambda sim, flows: SCFQScheduler(wfq_weights)),
        "WFQ": _run("WFQ", lambda sim, flows: WFQScheduler(sim, LINK_RATE, wfq_weights)),
        "Hybrid (k=3)": _run("Hybrid", hybrid_factory, hybrid=True),
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
