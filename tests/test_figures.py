"""Figure harness: structure and fast-mode execution.

Full qualitative checks live in the benchmarks; here we verify that every
figure function produces well-formed series.  To keep the suite quick we
monkeypatch the sweep sizing down to a couple of points.

``tests/data/figure_jobs.json`` pins what every figure *is* — the jobs
it submits, in order, and how it labels what comes back — for both
sizings, without running a simulation.
"""

import hashlib
import json
import pathlib

import pytest

import repro.experiments.figures as figures_module
from repro.experiments.config import SweepConfig, sweep_config
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import format_figure
from repro.units import mbytes

TINY = SweepConfig(buffers=(mbytes(0.5), mbytes(2.0)), seeds=(1,), sim_time=0.6)


PINS_PATH = pathlib.Path(__file__).parent / "data" / "figure_jobs.json"


@pytest.fixture
def tiny_sweeps(monkeypatch):
    monkeypatch.setattr(figures_module, "sweep_config", lambda fast=None: TINY)


class _NoMeasurements:
    """Answers every metric the figures read, so no simulation runs."""

    def utilization(self):
        return 0.0

    def loss_fraction(self, flow_ids=None):
        return 0.0

    def throughput(self, flow_ids=None):
        return 0.0


class RecordingRunner:
    """Stores the submitted jobs instead of executing them."""

    def __init__(self):
        self.jobs = []

    def run(self, jobs):
        jobs = list(jobs)
        self.jobs.extend(jobs)
        return [_NoMeasurements()] * len(jobs)


def figure_pin(name, fast):
    """What one figure submits and how it presents the answer."""
    runner = RecordingRunner()
    figure = ALL_FIGURES[name](fast=fast, runner=runner)
    digests = "\n".join(job.digest() for job in runner.jobs)
    return {
        "jobs_sha256": hashlib.sha256(digests.encode("ascii")).hexdigest(),
        "n_jobs": len(runner.jobs),
        "labels": list(figure.series),
        "x": list(figure.x),
        "xlabel": figure.xlabel,
        "ylabel": figure.ylabel,
        "name": figure.name,
        "title": figure.title,
    }


def all_figure_pins():
    return {
        f"{name}:{'fast' if fast else 'full'}": figure_pin(name, fast)
        for name in ALL_FIGURES
        for fast in (True, False)
    }


class TestFigurePins:
    """Captured at the commit before the figures became a table."""

    PINS = json.loads(PINS_PATH.read_text(encoding="utf-8"))

    def test_twenty_six_entries(self):
        assert len(self.PINS) == 26

    @pytest.mark.parametrize("key", sorted(PINS))
    def test_figure_submits_the_pinned_jobs(self, key):
        name, mode = key.split(":")
        assert figure_pin(name, fast=mode == "fast") == self.PINS[key]


class TestSweepConfig:
    def test_fast_mode_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        config = sweep_config()
        assert config.sim_time < 20.0

    def test_full_mode_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        config = sweep_config()
        assert config.sim_time == 20.0
        assert len(config.seeds) == 5

    def test_explicit_fast_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert sweep_config(fast=True).sim_time < 20.0


class TestFigureRegistry:
    def test_all_thirteen_figures_registered(self):
        assert sorted(ALL_FIGURES) == sorted(f"figure{i}" for i in range(1, 14))


@pytest.mark.usefixtures("tiny_sweeps")
@pytest.mark.parametrize("name", ["figure1", "figure2", "figure4", "figure7"])
class TestFigureStructure:
    def test_series_aligned_with_x(self, name):
        result = ALL_FIGURES[name]()
        assert result.series
        for label, points in result.series.items():
            assert len(points) == len(result.x), label

    def test_report_renders(self, name):
        result = ALL_FIGURES[name]()
        text = format_figure(result)
        assert result.name in text
        assert result.ylabel in text


@pytest.mark.usefixtures("tiny_sweeps")
class TestFigureSemantics:
    def test_figure1_has_four_schemes(self):
        result = ALL_FIGURES["figure1"]()
        assert len(result.series) == 4

    def test_figure3_has_flow6_and_flow8_curves(self):
        result = ALL_FIGURES["figure3"]()
        assert any("flow 6" in label for label in result.series)
        assert any("flow 8" in label for label in result.series)

    def test_figure7_x_axis_is_headroom(self):
        result = ALL_FIGURES["figure7"]()
        assert "headroom" in result.xlabel

    def test_figure8_includes_hybrid(self):
        result = ALL_FIGURES["figure8"]()
        assert any("Hybrid" in label for label in result.series)

    def test_figure12_splits_conformant_and_moderate(self):
        result = ALL_FIGURES["figure12"]()
        assert any("conformant" in label for label in result.series)
        assert any("moderate" in label for label in result.series)

    def test_figure13_reports_aggressive_flows(self):
        result = ALL_FIGURES["figure13"]()
        assert any("aggressive" in label for label in result.series)
