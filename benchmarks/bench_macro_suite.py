"""Macro benchmark suite under pytest-benchmark.

The same curated cases the ``repro bench`` harness gates in CI (one
scenario per scheme family), exposed through pytest-benchmark for interactive profiling sessions:

    pytest benchmarks/bench_macro_suite.py --benchmark-only

Uses the quick (CI-sized) suite so a full pass stays in seconds; the
JSON-baseline workflow with noise-aware gating lives in
:mod:`repro.bench`, not here.
"""

import pytest

from repro.bench.measure import measure_case
from repro.bench.suite import MACRO, default_suite

_QUICK = {case.name: case for case in default_suite(quick=True)}


@pytest.mark.parametrize(
    "name",
    ["fifo-threshold", "shared-headroom", "wfq-threshold", "hybrid-sharing"],
)
def test_macro_scheme_family(benchmark, name):
    """One full scenario per scheme family at CI sizing."""
    case = _QUICK[name]
    result = benchmark.pedantic(
        lambda: measure_case(case, trials=1), rounds=3, iterations=1
    )
    assert result.kind == MACRO
    assert result.events > 0
    assert result.packets is not None and result.packets > 0

