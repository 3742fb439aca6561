"""Per-layer numbers: the profile fold, the boundary counts, the drives.

Layers are the repository's modules.  Three kinds of number, all taken
from the benchmark's own files:

* a *traced* repetition under ``cProfile``, folded by the layer that
  owns each function's source file (``calls_per_pkt`` is exact and
  repeats run to run; ``self_frac`` is a share of profiled self time);
* *boundary counts* read off the results of an untraced repetition;
* *drives*: one layer's public methods called in a loop with tracing
  off, best of a few rounds, in cops.
"""

from __future__ import annotations

import pathlib
import shutil
import statistics
import tempfile
import time
from collections import deque

from calibrate import calibrate, cops
from repro.experiments.campaign import ResultCache
from repro.experiments.campaign.runner import execute_job
from repro.experiments.schemes import build_scheme
from repro.experiments.sweep import aggregate_sweep, run_sweep_worker
from repro.experiments.workloads import LINK_RATE, PACKET_SIZE
from repro.metrics.collector import StatsCollector
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.traffic.shaper import LeakyBucketShaper

__all__ = [
    "LAYERS",
    "PER_LAYER",
    "fold_profile",
    "boundary_metrics",
    "component_drives",
    "sweep_split",
]

#: Source path (under ``src/repro/``) prefix -> layer; first match wins.
_LAYER_OF_PATH = (
    ("sim/engine.py", "sim.engine"),
    ("sim/equeue.py", "sim.equeue"),
    ("sim/port.py", "sim.port"),
    ("sim/packet.py", "sim.packet"),
    ("traffic/shaper.py", "traffic.shaper"),
    ("traffic/", "traffic.sources"),
    ("core/", "core"),
    ("sched/", "sched"),
    ("metrics/", "metrics"),
    ("obs/", "obs"),
    ("net/", "net"),
    ("experiments/campaign/", "experiments.campaign"),
    ("experiments/sweep/", "experiments.sweep"),
    # The fabric and the scenario glue around it (runner, schemes, spec).
    ("experiments/", "experiments.fabric"),
    ("check/", "check"),
    ("lint/", "check"),
)

LAYERS = (
    "sim.engine",
    "sim.equeue",
    "sim.port",
    "sim.packet",
    "traffic.sources",
    "traffic.shaper",
    "core",
    "sched",
    "metrics",
    "obs",
    "net",
    "experiments.fabric",
    "experiments.campaign",
    "experiments.sweep",
    "check",
    # Standard library, numpy and the harness itself.
    "other",
)

_BOUNDARY = (
    ("sim.engine.events_per_pkt", "1/pkt", "lower"),
    ("sim.port.drop_frac", "frac", "lower"),
    ("core.conformant_drops", "count", "lower"),
    ("sim.equeue.cancelled_pending", "count", "lower"),
    ("sim.equeue.compactions", "count", "lower"),
    ("obs.events_per_pkt", "1/pkt", "lower"),
    ("obs.timeline_ticks", "count", "lower"),
    ("net.churn_accept_frac", "frac", "higher"),
)

_DRIVES = (
    ("sim.engine.drive_cops_per_event", "cops/event"),
    ("traffic.shaper.drive_cops_per_pkt", "cops/pkt"),
    ("sim.port.drive_cops_per_pkt", "cops/pkt"),
    ("core.drive_cops_per_admit", "cops/admit"),
    ("sched.drive_cops_per_pkt", "cops/pkt"),
    ("metrics.drive_cops_per_pkt", "cops/pkt"),
)

_SWEEP_SPLIT = (
    ("experiments.sweep.expand_cops_per_cell", "cops/cell"),
    ("experiments.sweep.cold_cops_per_cell", "cops/cell"),
    ("experiments.campaign.execute_cops_per_cell", "cops/cell"),
    ("experiments.sweep.overhead_frac", "frac"),
    ("experiments.sweep.warm_cops_per_cell", "cops/cell"),
    ("experiments.sweep.aggregate_cops_per_cell", "cops/cell"),
    ("experiments.campaign.cache_put_cops", "cops"),
    ("experiments.campaign.cache_get_cops", "cops"),
)

#: Every per-layer metric as ``(name, unit, better)``, in print order.
#: A metric that does not apply to a workload reads 0 there.
PER_LAYER = (
    tuple((f"{layer}.calls_per_pkt", "1/pkt", "lower") for layer in LAYERS)
    + tuple((f"{layer}.self_frac", "frac", "lower") for layer in LAYERS)
    + (("trace.overhead_x", "x", "lower"),)
    + _BOUNDARY
    + tuple((name, unit, "lower") for name, unit in _DRIVES + _SWEEP_SPLIT)
)

#: Rounds per drive and per sweep split; the best round counts.
DRIVE_ROUNDS = 5


# -- traced run -------------------------------------------------------------


def _layer_of(filename: str, src_root: str) -> str:
    if not filename.startswith(src_root):
        return "other"
    relative = filename[len(src_root):]
    for prefix, layer in _LAYER_OF_PATH:
        if relative.startswith(prefix):
            return layer
    return "other"


def _fileless(code) -> bool:
    """Builtins (a label, no code object) and generated code (``<string>``)."""
    return isinstance(code, str) or code.co_filename.startswith("<")


def fold_profile(profile, src_root: pathlib.Path, packets: int) -> dict:
    """Fold a finished ``cProfile.Profile`` into per-layer metrics.

    A Python function belongs to the layer owning its source file.  A
    builtin, or generated code such as a dataclass ``__init__``, has no
    file: its calls and self time go to the layer of each caller, as the
    profiler's per-caller sub-entries give them (so the layer that
    builds a trace event pays for building it).  Raw ``getstats()``
    entries are used, not the ``pstats`` table, whose ``(file, line,
    name)`` keys merge every dataclass ``__init__`` (``<string>:2``)
    into whichever one happened to be stored last.
    """
    root = str(src_root / "repro") + "/"
    entries = profile.getstats()
    # A fileless function that itself calls fileless ones passes them on
    # to the caller that uses it most.
    dominant: dict = {}
    for entry in entries:
        for sub in entry.calls or ():
            if _fileless(sub.code) and sub.callcount > dominant.get(sub.code, (0, None))[0]:
                dominant[sub.code] = (sub.callcount, entry)

    def layer_of(entry, depth: int = 0) -> str:
        if not _fileless(entry.code):
            return _layer_of(entry.code.co_filename, root)
        caller = dominant.get(entry.code)
        if caller is None or depth > 8:
            return "other"
        return layer_of(caller[1], depth + 1)

    calls = dict.fromkeys(LAYERS, 0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    orphans: dict = {}  # fileless code -> [calls, self time] no caller was charged for
    for entry in entries:
        layer = layer_of(entry)
        if _fileless(entry.code):
            left = orphans.setdefault(entry.code, [0, 0.0])
            left[0] += entry.callcount
            left[1] += entry.inlinetime
        else:
            calls[layer] += entry.callcount
            self_time[layer] += entry.inlinetime
        for sub in entry.calls or ():
            if _fileless(sub.code):
                calls[layer] += sub.callcount
                self_time[layer] += sub.inlinetime
                left = orphans.setdefault(sub.code, [0, 0.0])
                left[0] -= sub.callcount
                left[1] -= sub.inlinetime
    # Called from outside any profiled frame (the profiler's own ``disable``).
    calls["other"] += sum(left[0] for left in orphans.values())
    self_time["other"] += sum(left[1] for left in orphans.values())
    total = sum(self_time.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_pkt"] = calls[layer] / packets
        metrics[f"{layer}.self_frac"] = self_time[layer] / total
    return metrics


# -- boundary counts ----------------------------------------------------------


def boundary_metrics(counts: dict) -> dict:
    """Ratios at the layer boundaries from one untraced repetition's counts."""
    offered = counts["offered"]
    arrivals = counts.get("churn_arrivals", 0)
    return {
        "sim.engine.events_per_pkt": counts["events"] / offered,
        "sim.port.drop_frac": counts["dropped"] / offered,
        "core.conformant_drops": counts["conformant_drops"],
        "sim.equeue.cancelled_pending": counts.get("cancelled_pending", 0),
        "sim.equeue.compactions": counts.get("compactions", 0),
        "obs.events_per_pkt": counts.get("obs_events", 0) / offered,
        "obs.timeline_ticks": counts.get("timeline_ticks", 0),
        "net.churn_accept_frac": counts["churn_accepted"] / arrivals if arrivals else 0.0,
    }


# -- drives -------------------------------------------------------------------


class _Stopwatch:
    """Best-of timing in cops, calibrating between rounds."""

    def __init__(self) -> None:
        self._cal = calibrate()
        self.best: dict = {}

    def lap(self, fn):
        """Time ``fn()``; returns (its result, its cost in cops)."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        after = calibrate()
        cost = cops(wall, self._cal, after)
        self._cal = after
        return result, cost

    def record(self, name: str, cost_per_op: float) -> None:
        if cost_per_op < self.best.get(name, float("inf")):
            self.best[name] = cost_per_op


class _NullSink:
    __slots__ = ()

    def receive(self, packet) -> None:
        pass


def _drive_engine(n_flows: int, events: int = 60_000):
    sim = Simulator()

    def tick(gap: float) -> None:
        sim.schedule_fast(gap, tick, gap)

    gaps = [1e-3 * (1 + (i % 7) / 8) for i in range(n_flows)]
    for i, gap in enumerate(gaps):
        sim.schedule_fast(1e-6 * i, tick, gap)
    horizon = events / sum(1 / gap for gap in gaps)

    def run() -> int:
        sim.run(until=horizon)
        return sim.events_processed

    return run


def _drive_shaper(flows, packets: int = 15_000):
    flow = next((f for f in flows if f.conformant), flows[0])
    sim = Simulator()
    shaper = LeakyBucketShaper(sim, flow.bucket, flow.token_rate, _NullSink())
    # Bursts at four times the token rate, mean rate 0.9 of it: the
    # bucket drains and refills, so both the pass-through and the
    # delayed path are driven.
    burst = 40
    gap = PACKET_SIZE / (4 * flow.token_rate)
    idle = burst * PACKET_SIZE / (0.9 * flow.token_rate) - burst * gap

    def run() -> int:
        now = 0.0
        for k in range(packets):
            now += gap if k % burst else idle
            sim.run(until=now)
            shaper.receive(Packet.acquire(flow.flow_id, PACKET_SIZE, now))
        return packets

    return run


def _drive_port(flows, scheme, buffer_size, packets: int = 15_000):
    sim = Simulator()
    build = build_scheme(sim, scheme, flows, buffer_size, LINK_RATE)
    port = OutputPort(sim, LINK_RATE, build.scheduler, build.manager, recycle=True)
    flow_ids = [flow.flow_id for flow in flows]
    gap = PACKET_SIZE / (1.2 * LINK_RATE)

    def run() -> int:
        now = 0.0
        n = len(flow_ids)
        for k in range(packets):
            now += gap
            sim.run(until=now)
            port.receive(Packet.acquire(flow_ids[k % n], PACKET_SIZE, now))
        return packets

    return run


def _drive_manager(flows, scheme, buffer_size, admits: int = 30_000):
    build = build_scheme(Simulator(), scheme, flows, buffer_size, LINK_RATE)
    manager = build.manager
    flow_ids = [flow.flow_id for flow in flows]

    def run() -> int:
        held: deque = deque()
        n = len(flow_ids)
        window = 2 * n
        for k in range(admits):
            flow_id = flow_ids[k % n]
            if manager.try_admit(flow_id, PACKET_SIZE):
                held.append(flow_id)
            if len(held) > window:
                manager.on_depart(held.popleft(), PACKET_SIZE)
        while held:
            manager.on_depart(held.popleft(), PACKET_SIZE)
        return admits

    return run


def _drive_scheduler(flows, scheme, buffer_size, packets: int = 20_000):
    sim = Simulator()
    scheduler = build_scheme(sim, scheme, flows, buffer_size, LINK_RATE).scheduler
    flow_ids = [flow.flow_id for flow in flows]
    service = PACKET_SIZE / LINK_RATE

    def run() -> int:
        n = len(flow_ids)
        for flow_id in flow_ids:
            scheduler.enqueue(Packet(flow_id, PACKET_SIZE, 0.0))
        for k in range(packets):
            if k % 64 == 0:
                sim.run(until=sim.now + 64 * service)
            scheduler.enqueue(Packet(flow_ids[k % n], PACKET_SIZE, sim.now))
            scheduler.dequeue()
        while scheduler.dequeue() is not None:
            pass
        return packets

    return run


def _drive_collector(flows, delay_histograms: bool, packets: int = 30_000):
    collector = StatsCollector(warmup=0.0, delay_histograms=delay_histograms)
    flow_ids = [flow.flow_id for flow in flows]
    delays = [1e-4 * (1 + k % 97) for k in range(256)]

    def run() -> int:
        n = len(flow_ids)
        now = 0.0
        for k in range(packets):
            flow_id = flow_ids[k % n]
            now += 1e-4
            collector.on_offered(flow_id, PACKET_SIZE, now)
            collector.on_depart(flow_id, PACKET_SIZE, delays[k & 255], now)
        return packets

    return run


def component_drives(setup) -> dict:
    """The six layer drives for a simulation workload, in cops per operation.

    Components are built the way the workload builds them (its own
    flows, scheme and buffer), so N and the scheduler/manager types are
    the workload's.
    """
    flows, scheme, buffer_size, delay_histograms = setup
    makers = {
        "sim.engine.drive_cops_per_event": lambda: _drive_engine(len(flows)),
        "traffic.shaper.drive_cops_per_pkt": lambda: _drive_shaper(flows),
        "sim.port.drive_cops_per_pkt": lambda: _drive_port(flows, scheme, buffer_size),
        "core.drive_cops_per_admit": lambda: _drive_manager(flows, scheme, buffer_size),
        "sched.drive_cops_per_pkt": lambda: _drive_scheduler(flows, scheme, buffer_size),
        "metrics.drive_cops_per_pkt": lambda: _drive_collector(flows, delay_histograms),
    }
    watch = _Stopwatch()
    for _round in range(DRIVE_ROUNDS):
        for name, make in makers.items():
            ops, cost = watch.lap(make())
            watch.record(name, cost / ops)
    return watch.best


def sweep_split(workload) -> tuple[dict, dict]:
    """Where a sweep repetition's time goes, per cell in cops.

    Returns ``(metrics, engine counts)``; the counts (lazy-deletion
    state at the end of each cell) come from the bare ``execute_job``
    loop, the only place a fresh record's telemetry is in hand.
    """
    spec = workload.spec(0)
    cells = workload.cells
    watch = _Stopwatch()
    overheads = []
    records: list = []
    workload.work_dir.mkdir(parents=True, exist_ok=True)
    for _round in range(DRIVE_ROUNDS):
        root = pathlib.Path(tempfile.mkdtemp(dir=workload.work_dir))
        spare = ResultCache(root / "spare")

        def sweep():
            return run_sweep_worker(
                spec, ResultCache(root / "cache"), owner="e2e", preflight=True
            )

        laps = (
            ("sweep.expand_cops_per_cell", lambda: [j.digest() for _p, j in spec.jobs()]),
            ("sweep.cold_cops_per_cell", sweep),
            ("campaign.execute_cops_per_cell", lambda: [execute_job(j) for _p, j in spec.jobs()]),
            ("sweep.warm_cops_per_cell", sweep),
            ("sweep.aggregate_cops_per_cell",
             lambda: aggregate_sweep(spec, ResultCache(root / "cache"))),
            ("campaign.cache_put_cops", lambda: [spare.put(r) for r in records]),
            ("campaign.cache_get_cops", lambda: [spare.get(r.job_digest) for r in records]),
        )
        costs = {}
        try:
            for name, fn in laps:
                result, cost = watch.lap(fn)
                costs[name] = cost / cells
                watch.record(f"experiments.{name}", cost / cells)
                if name == "campaign.execute_cops_per_cell":
                    records = result
        finally:
            shutil.rmtree(root, ignore_errors=True)
        # Paired within the round: the two laps ran back to back.
        overheads.append(
            1.0 - costs["campaign.execute_cops_per_cell"] / costs["sweep.cold_cops_per_cell"]
        )
    metrics = dict(watch.best)
    metrics["experiments.sweep.overhead_frac"] = statistics.median(overheads)
    counts = {
        "cancelled_pending": sum(r.telemetry.cancelled_pending for r in records),
        "compactions": sum(r.telemetry.compactions for r in records),
    }
    return metrics, counts
