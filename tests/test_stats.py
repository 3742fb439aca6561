"""Replication statistics (mean ± 95% CI) and the Student-t quantile."""

import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics import stats
from repro.metrics.stats import MeanCI, mean_ci

REPO = Path(__file__).resolve().parents[1]

#: 1,025 (df, confidence, t) rows: df 1-200, 255, 300, 511, 1000, 2000
#: at five confidences, correctly rounded from mpmath at 50 digits.
T_QUANTILES = REPO / "tests" / "data" / "t_quantiles.json"

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

#: Every surface that computes intervals, with scipy blocked: ``mean_ci``
#: at n = 2 and n = 8 (which load no module at all), a two-seed one-link
#: sweep aggregated from its cache, and a spec file.
INTERVAL_STEPS = """
import sys
import tempfile
sys.modules["scipy"] = None
import repro
from repro.metrics.stats import mean_ci

loaded = set(sys.modules)
assert mean_ci([0.0, 2.0]).halfwidth == 12.706204736174694
assert mean_ci([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0]).halfwidth == 2.2315652001439417
assert set(sys.modules) == loaded, sorted(set(sys.modules) - loaded)

from repro.experiments.campaign import ResultCache
from repro.experiments.spec import load_specs, run_spec
from repro.experiments.sweep import SweepAxis, SweepSpec, aggregate_sweep, run_sweep_worker

spec = SweepSpec(
    name="no-scipy",
    axes=(SweepAxis("seed", (1, 2)),),
    base={"sim_time": 0.1, "warmup": 0.0},
)
with tempfile.TemporaryDirectory() as root:
    run_sweep_worker(spec, ResultCache(root), owner="t")
    (group,) = aggregate_sweep(spec, ResultCache(root))["groups"]
assert group["seeds"] == [1, 2]
assert all(metric["n"] == 2 for metric in group["metrics"].values())
for entry in load_specs("examples/specs/table1_thresholds.json"):
    assert all(ci.n == 2 for ci in run_spec(entry).values())
scipy = [name for name, module in sys.modules.items() if name.startswith("scipy") and module]
assert not scipy, scipy
"""

#: Every surface above, with numpy blocked as well: nothing a run, a
#: sweep, an aggregate, a spec or the auditor does draws on numpy.
NO_NUMPY_STEPS = (
    'import sys\nsys.modules["numpy"] = None\n' + NO_INTERVAL_STEPS + INTERVAL_STEPS
)

#: ``import repro``'s modules, as JSON; with ``stub`` the quantile's
#: ``decimal`` import is satisfied by a stand-in, as if it were not there.
IMPORT_REPRO = """
import json, sys, types
if {stub}:
    sys.modules["decimal"] = types.SimpleNamespace(Decimal=float, localcontext=None)
import repro
print(json.dumps(sorted(sys.modules)))
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
        # The quantile is correctly rounded; the two values pinned before
        # it (...408 and ...186) carried scipy's error in t.
        result = mean_ci([0.0, 2.0])
        assert result.mean == 1.0
        assert result.halfwidth == 12.706204736174694
        assert (
            mean_ci([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0]).halfwidth
            == 2.2315652001439417
        )
        # mean_ci is fixed at 95%; another level is the quantile's alone.
        assert stats._t_quantile(0.5 + 0.99 / 2.0, 2) == 9.92484320091829

    def test_interval_narrows_with_more_samples(self):
        narrow = mean_ci([0.0, 2.0] * 10)
        wide = mean_ci([0.0, 2.0])
        assert narrow.halfwidth < wide.halfwidth

    def test_higher_confidence_is_wider(self):
        assert stats._t_quantile(0.5 + 0.99 / 2.0, 3) > stats._t_quantile(0.975, 3)
        assert stats._t_quantile(0.975, 3) > stats._t_quantile(0.5 + 0.9 / 2.0, 3)

    def test_str_mentions_n(self):
        assert "n=3" in str(mean_ci([1.0, 2.0, 3.0]))


class TestValidation:
    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_ci([])


#: P(|T| <= sqrt(df) tan theta) and its derivative, in the current context.
cdf = stats._abs_t_cdf


def atan(x: Decimal) -> Decimal:
    """arctan x for x >= 0 by Euler's series, in the current decimal context."""
    if x > 1:
        return stats._PI / 2 - atan(1 / x)
    y = x * x / (1 + x * x)
    term = total = x / (1 + x * x)
    n = 0
    while True:
        n += 1
        term = term * y * (2 * n) / (2 * n + 1)
        if total + term == total:
            return total
        total += term


class TestTQuantile:
    """The correctly rounded Student-t quantile behind every interval."""

    def test_matches_every_row_of_the_table(self):
        rows = json.loads(T_QUANTILES.read_text(encoding="utf-8"))["rows"]
        assert len(rows) == 1025
        wrong = [
            (df, confidence, t)
            for df, confidence, t in rows
            if stats._t_quantile(0.5 + confidence / 2.0, df) != t
        ]
        assert not wrong

    @pytest.mark.parametrize("df, value", [(1, 12.706), (2, 4.303), (7, 2.365)])
    def test_textbook_values(self, df, value):
        assert round(stats._t_quantile(0.975, df), 3) == value

    def test_median_and_certainty(self):
        assert stats._t_quantile(0.5, 4) == 0.0
        assert stats._t_quantile(1.0, 4) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(df=st.integers(1, 2000), confidence=st.floats(0.01, 0.999999))
    def test_half_ulp_neighbours_bracket_the_target(self, df, confidence):
        """P(T <= t) at the midpoints to t's neighbouring doubles lies on
        either side of q: no other double is nearer the exact quantile.
        The uncached call also shows Newton's step count stays bounded."""
        q = 0.5 + confidence / 2.0
        steps = []
        with mock.patch.object(
            stats, "_abs_t_cdf", lambda theta, df: steps.append(theta) or cdf(theta, df)
        ):
            t = stats._t_quantile.__wrapped__(q, df)
        assert len(steps) <= 20
        with localcontext() as context:
            context.prec = 60
            root = Decimal(df).sqrt()
            below, above = (
                cdf(atan((Decimal(t) + Decimal(neighbour)) / 2 / root), df)[0]
                for neighbour in (math.nextafter(t, 0.0), math.nextafter(t, math.inf))
            )
            assert below <= 2 * Decimal(q) - 1 <= above

    @settings(max_examples=60, deadline=None)
    @given(
        df=st.integers(1, 2000),
        other_df=st.integers(1, 2000),
        confidence=st.floats(0.01, 0.999999),
        other_confidence=st.floats(0.01, 0.999999),
    )
    def test_rises_with_confidence_and_falls_with_df(
        self, df, other_df, confidence, other_confidence
    ):
        low, high = sorted((0.5 + confidence / 2.0, 0.5 + other_confidence / 2.0))
        assert stats._t_quantile(low, df) <= stats._t_quantile(high, df)
        few, many = sorted((df, other_df))
        assert stats._t_quantile(low, few) >= stats._t_quantile(low, many)


class TestImportFootprint:
    """No numpy or scipy anywhere; the quantile costs ``import repro`` two modules."""

    def test_import_repro_loads_no_numpy(self):
        result = run_python('import sys, repro\nassert "numpy" not in sys.modules')
        assert result.returncode == 0, result.stderr

    def test_every_surface_runs_without_numpy(self):
        result = run_python(NO_NUMPY_STEPS)
        assert result.returncode == 0, result.stderr

    def test_no_interval_surface_runs_without_scipy(self):
        result = run_python('import sys\nsys.modules["scipy"] = None\n' + NO_INTERVAL_STEPS)
        assert result.returncode == 0, result.stderr

    def test_intervals_run_without_scipy(self):
        result = run_python(INTERVAL_STEPS)
        assert result.returncode == 0, result.stderr

    def test_import_repro_loads_no_pool_or_host_modules(self):
        """The process pool and the host name are imported where they are
        used (a ``workers > 1`` run, a sweep worker's owner id), so
        ``import repro`` loads none of what they pull in."""
        result = run_python(IMPORT_REPRO.format(stub=False))
        assert result.returncode == 0, result.stderr
        loaded = set(json.loads(result.stdout))
        assert not loaded & {
            "multiprocessing",
            "concurrent.futures.process",
            "socket",
            "subprocess",
            "pickle",
            "logging",
            "platform",
        }

    def test_quantile_adds_exactly_decimals_two_modules(self):
        """``import repro`` loads what it loaded before the quantile plus
        ``decimal``, ``_decimal`` and ``numbers`` (206 -> 209 modules on
        CPython 3.11): ``decimal``'s two, and the ``numbers`` it imports,
        which numpy loaded first while ``import repro`` loaded numpy."""
        loaded = {}
        for stub in (False, True):
            result = run_python(IMPORT_REPRO.format(stub=stub))
            assert result.returncode == 0, result.stderr
            loaded[stub] = set(json.loads(result.stdout))
        assert loaded[False] - loaded[True] == {"_decimal", "numbers"}
        assert loaded[True] <= loaded[False]
