"""The curated suite: case definitions, digests, and measurement."""

from __future__ import annotations

import pytest

from repro.bench.measure import CaseResult, measure_case, run_suite
from repro.bench.suite import (
    MACRO,
    MICRO,
    BenchCase,
    default_suite,
    resolve_cases,
)
from repro.errors import ConfigurationError, SimulationError


def _tiny_micro(name="tiny", value=5):
    return BenchCase(
        name,
        MICRO,
        runner=lambda params: params["n"],
        params={"n": value},
    )


class TestSuiteDefinition:
    def test_one_macro_case_per_scheme_family(self):
        macro = [c.name for c in default_suite() if c.kind == MACRO]
        assert macro == [
            "fifo-threshold",
            "shared-headroom",
            "wfq-threshold",
            "hybrid-sharing",
            "tandem-3hop",
        ]

    def test_micro_cases_cover_engine_and_sources(self):
        micro = {c.name for c in default_suite() if c.kind == MICRO}
        assert micro == {
            "engine-chain",
            "engine-preloaded",
            "engine-cancel",
            "churn",
            "churn-reclaim",
            "timeline-sampled",
        }

    def test_quick_and_full_have_different_digests(self):
        full = {c.name: c.digest() for c in default_suite()}
        quick = {c.name: c.digest() for c in default_suite(quick=True)}
        assert set(full) == set(quick)
        for name in full:
            assert full[name] != quick[name], name

    def test_digests_are_stable_across_rebuilds(self):
        first = {c.name: c.digest() for c in default_suite()}
        second = {c.name: c.digest() for c in default_suite()}
        assert first == second

    def test_macro_digest_is_the_campaign_job_digest(self):
        case = default_suite()[0]
        assert case.digest() == case.job.digest()

    def test_micro_digest_depends_on_params(self):
        assert _tiny_micro(value=5).digest() != _tiny_micro(value=6).digest()

    def test_macro_case_requires_job(self):
        with pytest.raises(ConfigurationError):
            BenchCase("broken", MACRO)

    def test_micro_case_requires_runner(self):
        with pytest.raises(ConfigurationError):
            BenchCase("broken", MICRO)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchCase("broken", "mega")

    def test_resolve_cases_by_name(self):
        cases = resolve_cases(["engine-chain", "fifo-threshold"])
        assert [c.name for c in cases] == ["engine-chain", "fifo-threshold"]

    def test_resolve_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_cases(["engine-chain", "nope"])


class TestMeasure:
    def test_micro_measurement_records_trials(self):
        result = measure_case(_tiny_micro(), trials=3)
        assert result.trials == 3
        assert result.events == 5
        assert result.packets is None
        assert result.digest == _tiny_micro().digest()
        assert all(t >= 0 for t in result.wall_times)
        assert result.peak_rss_bytes > 0

    def test_macro_measurement_counts_events_and_packets(self):
        case = resolve_cases(["fifo-threshold"], quick=True)[0]
        result = measure_case(case, trials=1)
        assert result.kind == MACRO
        assert result.events > 0
        assert result.packets is not None and result.packets > 0
        assert result.events_per_sec > 0
        assert result.packets_per_sec > 0

    def test_setup_runs_outside_the_timed_window(self):
        calls = []
        case = BenchCase(
            "prepared",
            MICRO,
            runner=lambda params, state: state["value"],
            params={"value": 7},
            setup=lambda params: calls.append(params) or {"value": params["value"]},
        )
        result = measure_case(case, trials=2)
        assert result.events == 7
        assert len(calls) == 2  # fresh state per trial

    def test_macro_case_rejects_setup_hook(self):
        job = resolve_cases(["fifo-threshold"], quick=True)[0].job
        with pytest.raises(ConfigurationError):
            BenchCase("broken", MACRO, job=job, setup=lambda params: None)

    def test_nondeterministic_case_rejected(self):
        drifting = iter(range(10))
        case = BenchCase(
            "drift",
            MICRO,
            runner=lambda params: next(drifting),
            params={},
        )
        with pytest.raises(SimulationError, match="nondeterministic"):
            measure_case(case, trials=2)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_case(_tiny_micro(), trials=0)

    def test_run_suite_preserves_order_and_reports_progress(self):
        seen = []
        results = run_suite(
            [_tiny_micro("a"), _tiny_micro("b")],
            trials=1,
            progress=lambda r: seen.append(r.name),
        )
        assert [r.name for r in results] == ["a", "b"]
        assert seen == ["a", "b"]


class TestCaseResult:
    def test_round_trips_through_dict(self):
        result = measure_case(_tiny_micro(), trials=2)
        clone = CaseResult.from_dict(result.to_dict())
        assert clone == result

    def test_rel_spread_is_relative_range(self):
        result = CaseResult(
            name="x",
            kind=MICRO,
            digest="d",
            events=10,
            packets=None,
            wall_times=(1.0, 2.0, 3.0),
            peak_rss_bytes=1,
        )
        assert result.wall_time == 2.0
        assert result.rel_spread == pytest.approx(1.0)

    def test_empty_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            CaseResult(
                name="x",
                kind=MICRO,
                digest="d",
                events=1,
                packets=None,
                wall_times=(),
                peak_rss_bytes=1,
            )

    def test_malformed_dict_rejected(self):
        with pytest.raises(ConfigurationError):
            CaseResult.from_dict({"name": "x"})
