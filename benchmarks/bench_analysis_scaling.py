"""Scaling artefact: what a packet costs as the number of flows grows.

The paper's thesis is a cost comparison.  A threshold test on a FIFO is
``O(1)`` per packet whatever the number of flows ``N``; WFQ sorts, which
is ``O(log N)``; the Section-4 hybrid sorts over its ``k`` queues only.
This bench measures that shape on the simulator itself, for
``FIFO_THRESHOLD``, ``FIFO_SHARING``, ``WFQ_THRESHOLD`` and
``HYBRID_SHARING`` (k = 3) at N = 16 ... 4096 flows:

* **calls per packet** — Python + C calls per offered packet inside
  ``Simulator.run``, from the call budget's counter
  (``tests/test_call_budget.py``), which repeats to the digit.  It must
  be flat in N for all four: a per-packet walk over the flow table
  would show here.  The ``log`` of a sorted discipline does not — a heap
  operation is one C call however deep it sifts — which is why the
  next columns exist.
* **head-of-line population** — entries in the scheduler's heap, read
  after every enqueue (when it is fullest).  This is the argument of the
  ``log``: at most N for WFQ (one entry per *backlogged* flow, never one
  per packet), at most k for the hybrid, and FIFO has no heap.
* **host cost per packet** — in cops, the end-to-end benchmark's unit
  (``benchmarks/e2e/calibrate.py``, imported unedited): each timed run
  sits between two calibrations, with gc collected, frozen and disabled
  around it as ``benchmarks/e2e/run.py`` does, and a cell's cost is the
  median over ``SAMPLE_PATHS`` sample paths (source seeds).
* **where that cost goes** — one run of the first sample path under
  ``cProfile``, folded by the owning layer with the benchmark's own
  ``layers.fold_profile``, and the median cost split in those shares.
  The *mechanism* the paper costs (``core``, ``sched``, ``sim.port``) is
  kept apart from what the simulation itself adds per flow: the sources
  and shapers (one of each per flow), the event heap (``sim.equeue``,
  one pending event per source) and the collector (``metrics``).  The
  summary gives each part's least-squares slope in cops per packet per
  doubling of N.

Wall-derived columns move with the host and are informational: nothing
is asserted on them.  The flows follow the recipe of the end-to-end
benchmark's ``port-wfq-manyflow`` workload (own copy: ``benchmarks/e2e``
is frozen and its 256-flow table is part of that workload): two in three
conformant and shaped to their reservation, the rest offering 2.5-3.4x
theirs in bursts of five buckets; 68% of the link reserved, about 112%
offered.  Link and buffer grow in proportion to N, so a flow's traffic
and its share of both are the same at every N and only the number of
flows changes.
"""

import cProfile
import gc
import math
import pathlib
import random
import statistics
import sys
import time

import repro
from benchmarks.conftest import build_port, scheme_build
from repro.experiments.report import format_table
from repro.experiments.schemes import Scheme
from repro.obs.events import EnqueueEvent
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes
from tests.test_call_budget import count_calls

# The end-to-end benchmark's calibration kernel and profile fold, as it
# uses them (its modules import each other by bare name).
sys.path.append(str(pathlib.Path(__file__).resolve().parent / "e2e"))
from calibrate import calibrate, cops
from layers import fold_profile

FLOW_COUNTS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
SCHEMES = (
    Scheme.FIFO_THRESHOLD,
    Scheme.FIFO_SHARING,
    Scheme.WFQ_THRESHOLD,
    Scheme.HYBRID_SHARING,
)
K = 3
#: port-wfq-manyflow's 48 Mb/s and 4 MB for 256 flows, per flow.
LINK_MBPS_PER_FLOW = 48.0 / 256
BUFFER_MB_PER_FLOW = 4.0 / 256
SIM_TIME = 2.5
POPULATION_SEED = 1998
#: Sample path ``p`` seeds its sources from ``SEED + p``; path 0 is the
#: one counted, probed and profiled.
SEED = 22
SAMPLE_PATHS = 3
#: Calls per packet move a little with N because the traffic mix does
#: (share of packets dropped, delayed by a shaper, or finding the link
#: idle); a walk over N flows would multiply them.
FLAT_WITHIN = 0.10
SRC = pathlib.Path(repro.__file__).parent.parent
#: Cost parts: the mechanism, the simulation's own per-flow machinery,
#: and the rest (engine loop, packets, standard library).
PARTS = {
    "mechanism": ("core", "sched", "sim.port"),
    "sources+shaper": ("traffic.sources", "traffic.shaper"),
    "sim.equeue": ("sim.equeue",),
    "metrics": ("metrics",),
}


def make_flows(n: int) -> list:
    rng = random.Random(POPULATION_SEED)
    link_mbps = LINK_MBPS_PER_FLOW * n
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
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
    return flows


class HeadOfLineProbe:
    """A trace sink that reads the scheduler's heap population at each enqueue."""

    def __init__(self, scheduler) -> None:
        self.heap = getattr(scheduler, "_hol", ())  # FIFO has none
        self.peak = self.total = self.samples = 0

    def emit(self, event) -> None:
        if type(event) is not EnqueueEvent:
            return
        population = len(self.heap)
        self.peak = max(self.peak, population)
        self.total += population
        self.samples += 1


def scaled_port(scheme: Scheme, n: int, path: int = 0):
    """``(sim, port, collector)``: one port fed by ``n`` flows, unrun."""
    flows = make_flows(n)
    link = mbps(LINK_MBPS_PER_FLOW * n)
    # The hybrid's classes follow the recipe's three behaviours.
    groups = [[f.flow_id for f in flows if f.flow_id % K == g] for g in range(K)]
    build = scheme_build(scheme, flows, mbytes(BUFFER_MB_PER_FLOW * n), link, groups=groups)
    return build_port(flows, link, build, seed=SEED + path, sim_time=SIM_TIME, warmup=0.0)


def offered(collector) -> int:
    return sum(stats.offered_packets for stats in collector.flows.values())


def timed_cops_per_pkt(scheme: Scheme, n: int, path: int) -> float:
    """One timed run of a sample path, in cops per offered packet."""
    sim, _, collector = scaled_port(scheme, n, path)
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        before = calibrate()
        started = time.perf_counter()
        sim.run(until=SIM_TIME)
        wall = time.perf_counter() - started
        after = calibrate()
    finally:
        gc.enable()
        gc.unfreeze()
    return cops(wall, before, after) / offered(collector)


def layer_shares(scheme: Scheme, n: int) -> dict:
    """Share of profiled self time per part, from a traced run of path 0."""
    sim, _, collector = scaled_port(scheme, n)
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profile.enable()
        sim.run(until=SIM_TIME)
        profile.disable()
    finally:
        gc.enable()
    folded = fold_profile(profile, SRC, offered(collector))
    shares = {
        part: sum(folded[f"{layer}.self_frac"] for layer in layers)
        for part, layers in PARTS.items()
    }
    shares["rest"] = 1.0 - sum(shares.values())
    return shares


def measure(scheme: Scheme, n: int) -> dict:
    """One cell: counted, probed and profiled on path 0, timed on every path."""
    sim, _, collector = scaled_port(scheme, n)
    calls, _ = count_calls(lambda: sim.run(until=SIM_TIME))
    packets = offered(collector)

    sim, port, _ = scaled_port(scheme, n)
    probe = HeadOfLineProbe(port.scheduler)
    port.attach_trace(probe)
    sim.run(until=SIM_TIME)

    cost = statistics.median(timed_cops_per_pkt(scheme, n, path) for path in range(SAMPLE_PATHS))
    shares = layer_shares(scheme, n)
    return {
        "packets": packets,
        "calls_per_pkt": calls / packets,
        "hol_peak": probe.peak,
        "hol_mean": probe.total / probe.samples,
        "cops_per_pkt": cost,
        "parts": {part: cost * share for part, share in shares.items()},
    }


def slope_per_doubling(values) -> float:
    """Least-squares slope of ``values`` against log2 N over FLOW_COUNTS."""
    xs = [math.log2(n) for n in FLOW_COUNTS]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(values)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, values)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def test_per_packet_cost_is_flat_in_the_number_of_flows(publish):
    cells = {(scheme, n): measure(scheme, n) for scheme in SCHEMES for n in FLOW_COUNTS}
    part_names = [*PARTS, "rest"]

    def table(title, schemes, cell_text):
        rows = [
            [str(n), f"{cells[SCHEMES[0], n]['packets']:,}"]
            + [cell_text(cells[scheme, n]) for scheme in schemes]
            for n in FLOW_COUNTS
        ]
        header = ["N", "packets"] + [scheme.name for scheme in schemes]
        return f"{title}\n{format_table(header, rows)}"

    def split(scheme):
        rows = [
            [str(n), f"{cells[scheme, n]['cops_per_pkt']:.1f}"]
            + [f"{cells[scheme, n]['parts'][part]:.1f}" for part in part_names]
            for n in FLOW_COUNTS
        ]
        return f"{scheme.name}\n{format_table(['N', 'cops/pkt', *part_names], rows)}"

    slopes = {
        (scheme, part): slope_per_doubling(
            [cells[scheme, n]["parts"][part] for n in FLOW_COUNTS]
        )
        for scheme in SCHEMES
        for part in part_names
    }
    slope_rows = [
        [scheme.name]
        + [f"{slopes[scheme, part]:+.2f}" for part in part_names]
        + [f"{slope_per_doubling([cells[scheme, n]['cops_per_pkt'] for n in FLOW_COUNTS]):+.2f}"]
        for scheme in SCHEMES
    ]

    publish(
        "analysis_scaling",
        "Per-packet cost against the number of flows N\n"
        f"[link and buffer proportional to N, {SIM_TIME:g} s, hybrid k = {K}]\n\n"
        + table(
            "Calls per offered packet inside Simulator.run (exact)",
            SCHEMES, lambda cell: f"{cell['calls_per_pkt']:.2f}",
        )
        + "\n\n"
        + table(
            "Head-of-line heap entries after each enqueue: peak (mean)",
            SCHEMES[2:], lambda cell: f"{cell['hol_peak']} ({cell['hol_mean']:.1f})",
        )
        + "\n\n"
        + table(
            f"Host cost per offered packet, cops, median of {SAMPLE_PATHS} sample paths "
            "(informational)",
            SCHEMES, lambda cell: f"{cell['cops_per_pkt']:.1f}",
        )
        + "\n\n"
        + "The cost split by layer, cops per packet (profiled self-time shares of "
        "sample path 0;\nmechanism = core + sched + sim.port; informational)\n\n"
        + "\n\n".join(split(scheme) for scheme in SCHEMES)
        + "\n\n"
        + "Slope in N: least-squares cops per packet per doubling of N, N = "
        f"{FLOW_COUNTS[0]} ... {FLOW_COUNTS[-1]}\n"
        + format_table(["scheme", *part_names, "total"], slope_rows),
    )

    for scheme in SCHEMES:
        per_n = [cells[scheme, n]["calls_per_pkt"] for n in FLOW_COUNTS]
        assert max(per_n) <= min(per_n) * (1.0 + FLAT_WITHIN), (scheme.name, per_n)
    for n in FLOW_COUNTS:
        assert cells[Scheme.FIFO_THRESHOLD, n]["hol_peak"] == 0
        assert cells[Scheme.FIFO_SHARING, n]["hol_peak"] == 0
        # One entry per backlogged flow (class), never one per packet.
        assert 0 < cells[Scheme.WFQ_THRESHOLD, n]["hol_peak"] <= n
        assert 0 < cells[Scheme.HYBRID_SHARING, n]["hol_peak"] <= K
    # The argument of WFQ's log grows with N; the hybrid's cannot.
    assert (
        cells[Scheme.WFQ_THRESHOLD, FLOW_COUNTS[-1]]["hol_peak"]
        > cells[Scheme.WFQ_THRESHOLD, FLOW_COUNTS[0]]["hol_peak"]
    )
