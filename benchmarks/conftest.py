"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper, prints it as
an ASCII table, and archives it under ``results/``.  Benchmarks run in
fast mode by default (see ``repro.experiments.config``); set
``REPRO_FULL=1`` for the paper-faithful sweeps.  The figures run through
``default_runner()``, so ``REPRO_WORKERS``, ``REPRO_CACHE`` and
``REPRO_TELEMETRY`` apply as on the command line (docs/campaigns.md,
"Run options").

A bench row that needs only the run's result calls ``run_scenario``.  A
row that must hold the simulator before it runs (to time or profile
``sim.run``, or to attach a probe), or whose policy no ``Scheme`` builds,
gets the same one-link pipeline, unrun, from :func:`build_port`; when
its policy *is* a paper scheme, its ``build`` is :func:`scheme_build`,
which takes it from ``build_scheme``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.schemes import build_scheme
from repro.metrics.collector import StatsCollector
from repro.sim.engine import Simulator
from repro.sim.port import OutputPort
from repro.sim.rng import Generator, SeedSequence
from repro.traffic.shaper import LeakyBucketShaper
from repro.traffic.sources import OnOffSource

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def publish(results_dir, capsys):
    """Print a rendered artefact and archive it under results/."""

    def _publish(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        with capsys.disabled():
            print(f"\n{text}\n[saved to {path}]")

    return _publish


def series_means(figure, label):
    """Extract the mean values of one curve from a FigureResult."""
    return [point.mean for point in figure.series[label]]


def build_port(flows, link_rate, build, *, seed, sim_time, warmup=None):
    """``(sim, port, collector)``: the unrun one-link pipeline of ``run_fabric``.

    ``build(sim)`` returns the port's ``(scheduler, manager)``.  Each
    flow gets an on-off source from ``SeedSequence(seed).spawn(len(flows))``,
    behind a leaky-bucket shaper if it is conformant, sending until
    ``sim_time``; the collector measures after ``warmup``, 10% of
    ``sim_time`` unless given.
    """
    sim = Simulator()
    scheduler, manager = build(sim)
    collector = StatsCollector(warmup=0.1 * sim_time if warmup is None else warmup)
    port = OutputPort(sim, link_rate, scheduler, manager, collector)
    for flow, child in zip(flows, SeedSequence(seed).spawn(len(flows))):
        destination = port
        if flow.conformant:
            destination = LeakyBucketShaper(sim, flow.bucket, flow.token_rate, port)
        OnOffSource(
            sim, flow.flow_id, flow.peak_rate, flow.avg_rate, flow.mean_burst,
            destination, Generator(child), until=sim_time,
        )
    return sim, port, collector


def scheme_build(scheme, flows, buffer_size, link_rate, **options):
    """The ``build`` of :func:`build_port` for a paper scheme, from ``build_scheme``."""

    def build(sim):
        built = build_scheme(sim, scheme, flows, buffer_size, link_rate, **options)
        return built.scheduler, built.manager

    return build


class _ByteCounter:
    def __init__(self):
        self.bytes = 0.0

    def receive(self, packet):
        self.bytes += packet.size


def source_rates(flows, seed, horizon=120.0):
    """Each flow's on-off source run alone for ``horizon`` s: bytes/s offered."""
    measured = {}
    for flow in flows:
        sim = Simulator()
        counter = _ByteCounter()
        OnOffSource(
            sim, flow.flow_id, flow.peak_rate, flow.avg_rate, flow.mean_burst,
            counter, Generator(SeedSequence((seed, flow.flow_id))),
            until=horizon,
        )
        sim.run(until=horizon)
        measured[flow.flow_id] = counter.bytes / horizon
    return measured
