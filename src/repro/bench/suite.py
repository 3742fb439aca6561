"""The curated benchmark suite: what gets measured.

Two kinds of cases:

* **Macro** cases run one full scenario per scheme family (FIFO with
  static thresholds, FIFO with shared headroom, WFQ with thresholds, and
  the hybrid grouped scheme) on the paper's Table 1 workload, plus the
  reference three-hop tandem with flow churn through the scenario
  fabric.  Each wraps a campaign job
  (:class:`~repro.experiments.campaign.ScenarioJob` or
  :class:`~repro.experiments.campaign.NetworkJob`), so the case digest
  *is* the job's content digest — a baseline is tied to the exact
  scenario it measured, and any change to the workload, the scheme
  parameters, or the job schema invalidates the comparison instead of
  silently measuring something else.
* **Micro** cases mirror the pytest-benchmark engine workloads (event
  chain, preloaded heap, cancellation drain) plus an
  admission-dominated churn workload with and without live buffer
  reclamation and a port loop sampled by an installed sim-time
  :class:`~repro.obs.timeline.Timeline`.  They are digested over their
  canonical parameters tagged with
  :data:`~repro.bench.baseline.BENCH_SCHEMA`.

Every case is deterministic: a fixed seed, a fixed workload, a fixed
op count.  Trials therefore differ only in wall time, which is what
makes the relative spread across trials a usable noise estimate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.campaign import NetworkJob, ScenarioJob
from repro.experiments.fabric import (
    ChurnSpec,
    LinkSpec,
    NetworkScenario,
    NodeSpec,
    run_fabric,
)
from repro.experiments.fabric.demo import demo_tandem
from repro.core.fixed_threshold import FixedThresholdManager
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import CASE1_GROUPS, table1_flows
from repro.obs.timeline import Timeline
from repro.sched.fifo import FIFOScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes

__all__ = ["BenchCase", "MACRO", "MICRO", "default_suite", "resolve_cases"]

#: Case kinds.
MACRO = "macro"
MICRO = "micro"

#: Simulated seconds for the macro cases (full / --quick).
MACRO_SIM_TIME = 6.0
MACRO_SIM_TIME_QUICK = 2.0

#: Op counts for the engine micro cases (full / --quick).  Quick stays
#: large enough (~tens of ms per trial) that one scheduler hiccup does
#: not dominate the spread estimate.
MICRO_OPS = 100_000
MICRO_OPS_QUICK = 50_000


@dataclass(frozen=True)
class BenchCase:
    """One named, content-addressed benchmark workload.

    Exactly one of ``job`` (macro) or ``runner`` (micro) is set.  For
    micro cases ``params`` is the canonical parameter dict the digest is
    computed over; ``runner`` receives it and returns the number of
    events processed.
    """

    name: str
    kind: str
    job: ScenarioJob | NetworkJob | None = None
    runner: Callable[[dict], int] | None = None
    params: dict | None = None
    #: Optional untimed per-trial setup.  When set, it is called with
    #: the params *outside* the measured window and the runner receives
    #: ``(params, state)`` — the standard setup/measure split, so cases
    #: that need expensive identical-for-every-variant preparation
    #: (building an entry list, seeding a structure) do not dilute the
    #: thing being measured.
    setup: Callable[[dict], object] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (MACRO, MICRO):
            raise ConfigurationError(f"unknown case kind {self.kind!r}")
        if self.kind == MACRO and self.job is None:
            raise ConfigurationError(f"macro case {self.name!r} needs a job")
        if self.kind == MACRO and self.setup is not None:
            raise ConfigurationError(
                f"macro case {self.name!r} cannot take a setup hook"
            )
        if self.kind == MICRO and (self.runner is None or self.params is None):
            raise ConfigurationError(
                f"micro case {self.name!r} needs a runner and params"
            )

    def digest(self) -> str:
        """Content digest tying a measurement to its exact workload."""
        if self.job is not None:
            return self.job.digest()
        # Import here, not at module top: baseline.py imports nothing
        # from this module, but keeping the schema tag single-sourced.
        from repro.bench.baseline import BENCH_SCHEMA

        canonical = json.dumps(
            {"schema": BENCH_SCHEMA, "micro": self.name, "params": self.params},
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- macro cases ----------------------------------------------------------


def _macro_job(scheme: Scheme, seed: int, sim_time: float, **kwargs) -> ScenarioJob:
    return ScenarioJob.for_scenario(
        table1_flows(),
        scheme,
        mbytes(1.0),
        seed=seed,
        sim_time=sim_time,
        **kwargs,
    )


def _macro_cases(sim_time: float) -> list[BenchCase]:
    """One scenario per scheme family, same definitions as the
    equivalence goldens (``tests/data/equivalence_goldens.json``) so the
    byte-identity tests and the throughput numbers cover the same runs."""
    return [
        BenchCase(
            "fifo-threshold",
            MACRO,
            job=_macro_job(Scheme.FIFO_THRESHOLD, 11, sim_time),
        ),
        BenchCase(
            "shared-headroom",
            MACRO,
            job=_macro_job(
                Scheme.FIFO_SHARING, 12, sim_time, headroom=mbytes(0.5)
            ),
        ),
        BenchCase(
            "wfq-threshold",
            MACRO,
            job=_macro_job(
                Scheme.WFQ_THRESHOLD, 13, sim_time, delay_histograms=True
            ),
        ),
        BenchCase(
            "hybrid-sharing",
            MACRO,
            job=_macro_job(
                Scheme.HYBRID_SHARING,
                14,
                sim_time,
                headroom=mbytes(0.5),
                groups=CASE1_GROUPS,
            ),
        ),
        BenchCase(
            "tandem-3hop",
            MACRO,
            job=NetworkJob(
                demo_tandem(hops=3, seed=15, sim_time=sim_time, churn=True)
            ),
        ),
    ]


# -- micro cases ----------------------------------------------------------


def _run_event_chain(params: dict) -> int:
    """Sequential self-scheduling events — the common simulation shape."""
    n = params["n_events"]
    sim = Simulator()

    def hop() -> None:
        if sim.events_processed < n:
            sim.schedule_fast(0.001, hop)

    sim.schedule_fast(0.0, hop)
    sim.run()
    return sim.events_processed


def _run_preloaded(params: dict) -> int:
    """Large pre-populated heap: stresses heap push/pop ordering."""
    n = params["n_events"]
    sim = Simulator()
    noop = lambda: None  # noqa: E731 - a named def adds a frame per push
    for i in range(n):
        sim.schedule_fast(i * 0.001, noop)
    sim.run()
    return sim.events_processed


def _run_cancellation(params: dict) -> int:
    """Half the events cancelled: lazy deletion must stay cheap."""
    n = params["n_events"]
    sim = Simulator()
    noop = lambda: None  # noqa: E731
    events = [sim.schedule(i * 0.001, noop) for i in range(n)]
    for event in events[::2]:
        event.cancel()
    sim.run()
    return sim.events_processed


def _run_churn(params: dict) -> int:
    """Admission-dominated flow churn over a two-hop tandem.

    No static flows: every event is either churn machinery (arrival
    draws, route-wide admission checks, threshold bookkeeping,
    departures) or traffic from the short-lived accepted flows.  The
    arrival rate is set well above what the region can hold so the
    reject path — the hot path under overload — dominates.
    """
    nodes = (
        NodeSpec("a", scheme=Scheme.FIFO_THRESHOLD, buffer_size=mbytes(1.0)),
        NodeSpec("b", scheme=Scheme.FIFO_THRESHOLD, buffer_size=mbytes(1.0)),
        NodeSpec("c"),
    )
    links = (LinkSpec("a", "b", mbps(48.0)), LinkSpec("b", "c", mbps(48.0)))
    template = FlowSpec(
        flow_id=0,
        peak_rate=mbps(8.0),
        avg_rate=mbps(1.0),
        bucket=kbytes(50.0),
        token_rate=mbps(2.0),
        conformant=True,
        mean_burst=kbytes(50.0),
    )
    scenario = NetworkScenario(
        nodes=nodes,
        links=links,
        flows=(),
        churn=ChurnSpec(
            arrival_rate=params["arrival_rate"],
            mean_holding=params["mean_holding"],
            templates=(template,),
            routes=(("a", "b", "c"),),
            admission="auto",
            # Absent from the classic case's params so its digest (and
            # baseline history) is unchanged by the reclamation knob.
            reclamation=params.get("reclamation", False),
        ),
        sim_time=params["sim_time"],
        seed=params["seed"],
    )
    return run_fabric(scenario).events_processed


def _run_timeline_sampled(params: dict) -> int:
    """An overloaded port loop under an installed sim-time Timeline.

    Mirrors the bench_micro_obs port workload with the sampler running:
    the cost tracked here is the periodic probe pull (one self-
    rescheduling event per interval), which must stay proportional to
    the cadence rather than to traffic volume.
    """
    sim = Simulator()
    manager = FixedThresholdManager(
        capacity=50_000.0, thresholds={}, default_threshold=10_000.0
    )
    # repro: noqa RPR106 — mirrors the bench_micro_obs bare-port loop;
    port = OutputPort(sim, 1e6, FIFOScheduler(), manager)
    timeline = Timeline(interval=params["interval"])
    timeline.probe("occupancy", lambda: manager.total_occupancy)
    timeline.probe("free_space", lambda: manager.free_space)
    timeline.probe("backlog_packets", lambda: float(port.backlog_packets))

    n = params["n_packets"]
    interarrival = 0.0004  # 500 B / 1 MB/s service: sustained overload
    state = {"sent": 0}

    def arrival() -> None:
        port.receive(
            Packet(flow_id=state["sent"] % 8, size=500.0, created=sim.now)
        )
        state["sent"] += 1
        if state["sent"] < n:
            sim.schedule_fast(interarrival, arrival)

    sim.schedule_fast(0.0, arrival)
    timeline.install(sim, n * interarrival)
    sim.run()
    return sim.events_processed + timeline.ticks


def _micro_cases(n_events: int, source_time: float) -> list[BenchCase]:
    return [
        BenchCase(
            "engine-chain",
            MICRO,
            runner=_run_event_chain,
            params={"n_events": n_events},
        ),
        BenchCase(
            "engine-preloaded",
            MICRO,
            runner=_run_preloaded,
            params={"n_events": n_events},
        ),
        BenchCase(
            "engine-cancel",
            MICRO,
            runner=_run_cancellation,
            params={"n_events": n_events},
        ),
        BenchCase(
            "churn",
            MICRO,
            runner=_run_churn,
            params={
                "seed": 17,
                "sim_time": source_time / 2.0,
                "arrival_rate": 120.0,
                "mean_holding": 0.05,
            },
        ),
        BenchCase(
            "churn-reclaim",
            MICRO,
            runner=_run_churn,
            params={
                "seed": 17,
                "sim_time": source_time / 2.0,
                "arrival_rate": 120.0,
                "mean_holding": 0.05,
                "reclamation": True,
            },
        ),
        BenchCase(
            "timeline-sampled",
            MICRO,
            runner=_run_timeline_sampled,
            params={"n_packets": n_events // 10, "interval": 0.01},
        ),
    ]


# -- assembly -------------------------------------------------------------


def default_suite(quick: bool = False) -> list[BenchCase]:
    """The curated suite: five macro + six micro cases.

    ``quick`` shrinks sim time and op counts for CI-class machines; the
    case *digests* change with it, so quick and full baselines never
    cross-compare silently.
    """
    if quick:
        return _macro_cases(MACRO_SIM_TIME_QUICK) + _micro_cases(MICRO_OPS_QUICK, 10.0)
    return _macro_cases(MACRO_SIM_TIME) + _micro_cases(MICRO_OPS, 40.0)


def resolve_cases(names: list[str] | None, quick: bool = False) -> list[BenchCase]:
    """Select cases by name from the default suite (None = all)."""
    suite = default_suite(quick=quick)
    if names is None:
        return suite
    by_name = {case.name: case for case in suite}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise ConfigurationError(
            f"unknown bench cases: {unknown}; available: {sorted(by_name)}"
        )
    return [by_name[n] for n in names]
