"""The four benchmark workloads, driven through the program's public API.

Each workload is closed loop, one process, one thread: a repetition is
one call (or, for the sweep, three calls) into the program, and the next
starts when the previous one returns.  Inputs come from ``--seed``:
repetition ``i`` simulates sample path ``sub_seed(seed, i)``, so one run
averages over many sample paths — a single Table-1 path of a few
seconds holds only a few hundred bursts and its cost per packet moves
±2-4% with the seed alone.

A workload splits a repetition in three so that only the program is
inside the timed window: ``prepare`` builds the inputs, ``run`` calls
the program, ``inspect`` digests the statistics and runs the invariant
checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import random
import shutil
import tempfile

from repro.errors import ConfigurationError
from repro.experiments.campaign import ResultCache
from repro.experiments.fabric import run_fabric
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.sweep import (
    SweepAxis,
    SweepSpec,
    aggregate_sweep,
    run_sweep_worker,
)
from repro.experiments.workloads import LINK_RATE, table1_flows
from repro.obs.monitor import ConformanceMonitor
from repro.obs.sink import RingSink
from repro.obs.timeline import Timeline
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes

__all__ = ["WORKLOADS", "Outcome", "sub_seed"]


def sub_seed(seed: int, index: int) -> int:
    """The simulation seed of repetition ``index`` of a run."""
    return seed * 4096 + index


@dataclasses.dataclass
class Outcome:
    """What one repetition produced, as seen from outside the program."""

    packets: int
    digest: str
    #: ``(check name, passed)`` for every invariant evaluated.
    checks: list
    #: Raw boundary counts; the harness turns them into per-packet ratios.
    counts: dict


def _rows(flow_stats) -> dict:
    """Per-flow counters as plain JSON rows (digest and check input)."""
    return {
        str(flow_id): [
            stats.offered_packets,
            stats.dropped_packets,
            stats.departed_packets,
            stats.offered_bytes,
            stats.dropped_bytes,
            stats.departed_bytes,
            stats.delay_sum,
        ]
        for flow_id, stats in sorted(flow_stats.items())
    }


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _check_links(links: dict, conformant, inject=None) -> tuple[list, dict]:
    """Invariant checks over ``{link: {flow: row}}``; returns (checks, totals).

    Props. 1-2 of the paper promise zero loss to conformant flows; flow
    conservation must hold whatever the scheme does.  ``inject`` lets a
    test doctor the rows first, to prove the checks bite.
    """
    if inject == "conformant-drop":
        _inject_conformant_drop(links, conformant)
    offered = dropped = conformant_drops = 0
    conserved = True
    for rows in links.values():
        for flow_id, row in rows.items():
            offered += row[0]
            dropped += row[1]
            if row[1] > row[0] or row[2] > row[0] - row[1]:
                conserved = False
            if conformant(int(flow_id)):
                conformant_drops += row[1]
    checks = [("conservation", conserved), ("conformant-lossless", conformant_drops == 0)]
    totals = {
        "offered": offered,
        "dropped": dropped,
        "conformant_drops": conformant_drops,
    }
    return checks, totals


def _inject_conformant_drop(links: dict, conformant) -> None:
    for rows in links.values():
        for flow_id, row in rows.items():
            if conformant(int(flow_id)):
                row[1] += 1
                return


class _PortWorkload:
    """A single output port through ``run_scenario``, observability detached."""

    scheme: Scheme
    buffer_mb: float
    sim_time: float
    delay_histograms = False

    def __init__(self, seed: int, scale: float, work_dir, inject=None) -> None:
        self.seed = seed
        self.inject = inject
        self.sim_time = self.sim_time * scale
        self.flows = self.make_flows()
        self._conformant = {flow.flow_id for flow in self.flows if flow.conformant}

    def make_flows(self) -> list:
        raise NotImplementedError

    @property
    def params(self) -> dict:
        return {
            "scheme": self.scheme.name,
            "buffer_mb": self.buffer_mb,
            "sim_time": self.sim_time,
            "flows": len(self.flows),
            "delay_histograms": self.delay_histograms,
        }

    def drive_setup(self):
        """What the layer drives build their components from."""
        return self.flows, self.scheme, mbytes(self.buffer_mb), self.delay_histograms

    def prepare(self, index: int):
        return sub_seed(self.seed, index)

    def run(self, sim_seed: int):
        # warmup=0 so the collector counts every packet the run simulates.
        return run_scenario(
            self.flows,
            self.scheme,
            mbytes(self.buffer_mb),
            sim_time=self.sim_time,
            warmup=0.0,
            seed=sim_seed,
            delay_histograms=self.delay_histograms,
        )

    def inspect(self, sim_seed: int, result) -> Outcome:
        links = {"": _rows(result.flow_stats)}
        checks, totals = _check_links(links, self._conformant.__contains__, self.inject)
        counts = dict(
            totals,
            events=result.events_processed,
            cancelled_pending=result.cancelled_pending,
            compactions=result.compactions,
        )
        return Outcome(totals["offered"], _digest(links), checks, counts)


class PortFifo(_PortWorkload):
    name = "port-fifo"
    why = (
        "the paper's headline mechanism: Table-1 flows through shaper, FIFO "
        "port and threshold test, nothing attached"
    )
    scheme = Scheme.FIFO_THRESHOLD
    buffer_mb = 1.0
    sim_time = 4.0

    def make_flows(self) -> list:
        return table1_flows()


class PortWfqManyflow(_PortWorkload):
    name = "port-wfq-manyflow"
    why = (
        "the sorted-scheduling baseline in the many-flow regime: 256 generated "
        "flows, WFQ, delay histograms on; a FIFO fast path should not show here"
    )
    scheme = Scheme.WFQ_THRESHOLD
    buffer_mb = 4.0
    sim_time = 2.5
    delay_histograms = True
    n_flows = 256
    #: The flow table is part of the workload, like Table 1 is of
    #: ``port-fifo``: ``--seed`` picks the sample paths, not the flows.
    #: Two tables drawn from different seeds differ by 7% in cost per
    #: packet (how hard they press the buffer), which would read as noise.
    population_seed = 1998

    def make_flows(self) -> list:
        """256 flows reserving 68% of the link and offering about 112% of it.

        Two in three are conformant (shaped to their reservation); the
        rest offer 2.5-3.4x their reservation in bursts of five buckets,
        like Table 1's non-conformant flows.  Buckets are small enough
        that the thresholds ``sigma + rho B / R`` fit inside the buffer,
        so the zero-loss guarantee for conformant flows applies.
        """
        rng = random.Random(self.population_seed)
        link_mbps = 48.0
        weights = [rng.uniform(0.5, 1.5) for _ in range(self.n_flows)]
        total = sum(weights)
        flows = []
        for flow_id, weight in enumerate(weights):
            rho = 0.68 * link_mbps * weight / total
            bucket = rng.choice((2.5, 4.0, 6.0))
            if flow_id % 3 != 2:
                avg, peak, burst, conformant = rho, rho * rng.choice((4, 5, 8)), bucket, True
            else:
                avg = rho * rng.uniform(2.5, 3.4)
                peak, burst, conformant = avg * rng.choice((3, 5)), 5 * bucket, False
            flows.append(
                FlowSpec(
                    flow_id=flow_id,
                    peak_rate=mbps(peak),
                    avg_rate=mbps(avg),
                    bucket=kbytes(bucket),
                    token_rate=mbps(rho),
                    conformant=conformant,
                    mean_burst=kbytes(burst),
                )
            )
        buffer_size = mbytes(self.buffer_mb)
        reserved = sum(f.bucket + f.token_rate * buffer_size / LINK_RATE for f in flows)
        if reserved > buffer_size:
            raise ConfigurationError(
                f"generated thresholds ({reserved:.0f} B) over-book the buffer"
            )
        return flows


class TandemObserved:
    """The 3-hop churn tandem with every observability hook attached."""

    name = "tandem-observed"
    why = (
        "the same port and manager layers on the network path with churn, live "
        "reprovisioning and every hook attached: makes a dearer attached path show"
    )
    hops = 3
    sim_time = 1.5
    # Livelier churn than the demo's default, so that a 1.5 s path still
    # sees a few dozen arrivals and the departures that rescale thresholds.
    arrival_rate = 20.0
    mean_holding = 0.4
    timeline_interval = 0.01

    def __init__(self, seed: int, scale: float, work_dir, inject=None) -> None:
        self.seed = seed
        self.inject = inject
        self.sim_time = self.sim_time * scale
        self._static_conformant = {
            routed.spec.flow_id
            for routed in self._scenario(0).flows
            if routed.spec.conformant
        }

    def _scenario(self, sim_seed: int):
        scenario = demo_tandem(
            hops=self.hops,
            seed=sim_seed,
            sim_time=self.sim_time,
            churn=True,
            reclamation=True,
            arrival_rate=self.arrival_rate,
            mean_holding=self.mean_holding,
        )
        return dataclasses.replace(scenario, warmup=0.0)

    def _conformant(self, flow_id: int) -> bool:
        # Static flows only: a churn flow's guarantee ends with its
        # reservation, and packets its shaper still holds then may drop.
        # The monitor (watch/unwatch per flow) judges the dynamic ones.
        return flow_id in self._static_conformant

    @property
    def params(self) -> dict:
        return {
            "hops": self.hops,
            "sim_time": self.sim_time,
            "churn": True,
            "reclamation": True,
            "arrival_rate": self.arrival_rate,
            "mean_holding": self.mean_holding,
            "timeline_interval": self.timeline_interval,
        }

    def drive_setup(self):
        flows = [routed.spec for routed in self._scenario(0).flows]
        return flows, Scheme.FIFO_THRESHOLD, mbytes(1.0), True

    def prepare(self, index: int):
        scenario = self._scenario(sub_seed(self.seed, index))
        return scenario, RingSink(), Timeline(self.timeline_interval), ConformanceMonitor()

    def run(self, prepared):
        scenario, sink, timeline, monitor = prepared
        return run_fabric(scenario, sink=sink, timeline=timeline, monitor=monitor)

    def inspect(self, prepared, result) -> Outcome:
        _scenario, sink, timeline, _monitor = prepared
        links = {label: _rows(link.flow_stats) for label, link in result.links.items()}
        checks, totals = _check_links(links, self._conformant, self.inject)
        checks.append(("monitor-ok", result.monitor_report.ok))
        counts = dict(
            totals,
            events=result.events_processed,
            cancelled_pending=result.cancelled_pending,
            compactions=result.compactions,
            obs_events=sink.emitted,
            timeline_ticks=timeline.ticks,
            churn_arrivals=result.churn.arrivals,
            churn_accepted=result.churn.accepted,
        )
        payload = {"links": links, "churn": result.churn.to_dict()}
        # Packets are port-level: one per admission test, three per
        # end-to-end packet of the target flow.
        return Outcome(totals["offered"], _digest(payload), checks, counts)


class SweepSmallcells:
    """A 40-cell sweep of 0.1 s cells: cold, warm, aggregate."""

    name = "sweep-smallcells"
    why = (
        "short cells make the per-cell fixed cost (fabric build, digests, claims, "
        "pre-flight, cache I/O, shard append) a visible share; only user of the "
        "sharing schemes"
    )
    schemes = ("FIFO_THRESHOLD", "FIFO_SHARING", "WFQ_THRESHOLD", "WFQ_SHARING", "HYBRID_SHARING")
    # Five scheme families on one buffer size over eight seeds.  Cells of
    # one seed share their arrivals, so the packets a repetition simulates
    # (the denominator all overhead is charged to) are steadier with many
    # seeds than with many buffer sizes.
    buffers_mb = (1.0,)
    n_seeds = 8
    cell_sim_time = 0.1

    def __init__(self, seed: int, scale: float, work_dir, inject=None) -> None:
        self.seed = seed
        self.inject = inject
        self.work_dir = pathlib.Path(work_dir)
        self.n_seeds = max(1, round(self.n_seeds * scale))
        self.cells = len(self.schemes) * len(self.buffers_mb) * self.n_seeds
        self._conformant = {flow.flow_id for flow in table1_flows() if flow.conformant}

    @property
    def params(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "buffers_mb": list(self.buffers_mb),
            "seeds": self.n_seeds,
            "cell_sim_time": self.cell_sim_time,
        }

    def drive_setup(self):
        return None

    def spec(self, index: int) -> SweepSpec:
        first = sub_seed(self.seed, index) * 16
        return SweepSpec(
            name="e2e-smallcells",
            axes=(
                SweepAxis("scheme", self.schemes),
                SweepAxis("buffer_mb", self.buffers_mb),
                SweepAxis("seed", tuple(range(first, first + self.n_seeds))),
            ),
            base={"sim_time": self.cell_sim_time, "warmup": 0.0},
        )

    def prepare(self, index: int):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        return self.spec(index), pathlib.Path(tempfile.mkdtemp(dir=self.work_dir))

    def run(self, prepared):
        spec, root = prepared
        cold = run_sweep_worker(spec, ResultCache(root), owner="e2e", preflight=True)
        if self.inject == "warm-execute":
            next(iter(ResultCache(root).entries())).unlink()
        warm = run_sweep_worker(spec, ResultCache(root), owner="e2e", preflight=True)
        return cold, warm, aggregate_sweep(spec, ResultCache(root))

    def inspect(self, prepared, result) -> Outcome:
        spec, root = prepared
        cold, warm, aggregate = result
        try:
            cache = ResultCache(root)
            stats = cache.persisted_stats()
            records = [cache.get(job.digest()) for _params, job in spec.jobs()]
            again = aggregate_sweep(spec, cache)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        links = {
            record.job_digest: _rows(record.flow_stats)
            for record in records
            if record is not None
        }
        checks, totals = _check_links(links, self._conformant.__contains__, self.inject)
        checks += [
            ("cold-executes-all", cold.executed == self.cells and cold.outstanding == 0),
            ("warm-executes-none", warm.executed == 0),
            ("warm-hits-all", stats["hits"] == self.cells),
            ("aggregate-repeats", again == aggregate and aggregate["cells"] == self.cells),
        ]
        counts = dict(
            totals,
            events=sum(record.events_processed for record in records if record is not None),
        )
        # All campaign overhead is charged to the packets the cold pass simulated.
        return Outcome(totals["offered"], _digest(aggregate), checks, counts)


WORKLOADS = {
    cls.name: cls for cls in (PortFifo, PortWfqManyflow, TandemObserved, SweepSmallcells)
}
