"""Replication statistics (mean ± 95% CI)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.metrics.stats import MeanCI, mean_ci, replicate

REPO = Path(__file__).resolve().parents[1]

#: Every surface that computes no interval: a one-link scenario, the
#: reference tandem with churn, reclamation and every hook attached, and
#: the auditor over the committed specs, sweeps and goldens.
NO_INTERVAL_STEPS = """
import sys
import repro
from repro.__main__ import main
from repro.experiments.fabric import run_fabric
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import table1_flows
from repro.obs.monitor import ConformanceMonitor
from repro.obs.sink import RingSink
from repro.obs.timeline import Timeline
from repro.units import mbytes

run_scenario(table1_flows(), Scheme.FIFO_THRESHOLD, mbytes(1.0), sim_time=0.2, seed=1)
observed = run_fabric(
    demo_tandem(hops=3, sim_time=0.2, churn=True, reclamation=True),
    sink=RingSink(),
    timeline=Timeline(0.01),
    monitor=ConformanceMonitor(),
)
assert observed.monitor_report.ok
assert main(
    ["check", "examples/specs", "examples/sweeps", "tests/data/equivalence_goldens.json"]
) == 0
"""


def run_python(source: str) -> subprocess.CompletedProcess:
    """Run ``source`` in a fresh interpreter at the repo root."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", source],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )


class TestMeanCI:
    def test_mean_of_samples(self):
        result = mean_ci([1.0, 2.0, 3.0])
        assert result.mean == pytest.approx(2.0)
        assert result.n == 3

    def test_single_sample_has_zero_halfwidth(self):
        result = mean_ci([5.0])
        assert result.mean == 5.0
        assert result.halfwidth == 0.0

    def test_identical_samples_have_zero_halfwidth(self):
        assert mean_ci([4.0, 4.0, 4.0]).halfwidth == pytest.approx(0.0)

    def test_known_t_interval(self):
        # n=2, samples 0 and 2: mean 1, s=sqrt(2), se=1, t_{0.975,1}=12.706.
        # Pinned to the last bit: a different quantile routine moves it.
        result = mean_ci([0.0, 2.0])
        assert result.mean == 1.0
        assert result.halfwidth == 12.706204736174694
        assert (
            mean_ci([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0]).halfwidth
            == 2.2315652001439408
        )
        assert mean_ci([0.0, 2.0, 5.0], confidence=0.99).halfwidth == 14.420462847763186

    def test_interval_narrows_with_more_samples(self):
        narrow = mean_ci([0.0, 2.0] * 10)
        wide = mean_ci([0.0, 2.0])
        assert narrow.halfwidth < wide.halfwidth

    def test_higher_confidence_is_wider(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert mean_ci(samples, confidence=0.99).halfwidth > mean_ci(
            samples, confidence=0.9
        ).halfwidth

    def test_bounds(self):
        result = mean_ci([1.0, 3.0, 5.0])
        assert result.low == pytest.approx(result.mean - result.halfwidth)
        assert result.high == pytest.approx(result.mean + result.halfwidth)

    def test_relative_halfwidth(self):
        result = MeanCI(mean=10.0, halfwidth=0.5, n=5)
        assert result.relative_halfwidth == pytest.approx(0.05)

    def test_relative_halfwidth_zero_mean(self):
        assert MeanCI(0.0, 1.0, 3).relative_halfwidth == math.inf
        assert MeanCI(0.0, 0.0, 3).relative_halfwidth == 0.0

    def test_str_mentions_n(self):
        assert "n=3" in str(mean_ci([1.0, 2.0, 3.0]))


class TestValidation:
    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_ci([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_ci([1.0], confidence=1.0)
        with pytest.raises(ConfigurationError):
            mean_ci([1.0], confidence=0.0)


class TestReplicate:
    def test_runs_once_per_seed(self):
        seen = []

        def run(seed):
            seen.append(seed)
            return float(seed)

        result = replicate(run, seeds=[1, 2, 3])
        assert seen == [1, 2, 3]
        assert result.mean == pytest.approx(2.0)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate(lambda seed: 0.0, seeds=[])


class TestImportFootprint:
    """scipy arrives with the first interval, not with ``import repro``."""

    def test_no_interval_surface_runs_without_scipy(self):
        result = run_python('import sys\nsys.modules["scipy"] = None\n' + NO_INTERVAL_STEPS)
        assert result.returncode == 0, result.stderr

    def test_first_interval_loads_scipy(self):
        result = run_python(
            NO_INTERVAL_STEPS
            + """
def loaded():
    return [name for name in sys.modules if name.startswith("scipy")]

assert not loaded(), f"{len(loaded())} scipy modules before any interval"
from repro.metrics.stats import mean_ci
mean_ci([0.0, 2.0])
assert loaded(), "mean_ci computed an interval without scipy"
"""
        )
        assert result.returncode == 0, result.stderr
