"""Regression gating: thresholds, noise widening, digest discipline."""

from __future__ import annotations

import pytest

from repro.bench.baseline import BenchBaseline
from repro.bench.compare import compare_baselines
from repro.bench.measure import CaseResult
from repro.errors import ConfigurationError


def _case(name="c", wall=1.0, spread=0.0, digest="abc", events=1000):
    # wall_times (w, w-d, w+d) give median `wall` and rel_spread 2d/w.
    half = wall * spread / 2.0
    return CaseResult(
        name=name,
        kind="micro",
        digest=digest,
        events=events,
        packets=None,
        wall_times=(wall, wall - half, wall + half),
        peak_rss_bytes=1,
    )


def _baseline(*cases):
    return BenchBaseline(
        host_tag="t",
        python="3.11.0",
        platform="Linux-x86_64",
        cases=cases,
    )


def _verdict(base_case, fresh_case, **kwargs):
    report = compare_baselines(_baseline(base_case), _baseline(fresh_case), **kwargs)
    assert len(report.comparisons) == 1
    return report.comparisons[0]


class TestVerdicts:
    def test_equal_speed_is_ok(self):
        assert _verdict(_case(wall=1.0), _case(wall=1.0)).status == "ok"

    def test_small_slowdown_within_threshold_is_ok(self):
        assert _verdict(_case(wall=1.0), _case(wall=1.03)).status == "ok"

    def test_slowdown_beyond_threshold_regresses(self):
        verdict = _verdict(_case(wall=1.0), _case(wall=1.5))
        assert verdict.status == "regressed"
        assert verdict.delta == pytest.approx(1 / 1.5 - 1)

    def test_speedup_beyond_threshold_flagged_improved(self):
        assert _verdict(_case(wall=1.0), _case(wall=0.5)).status == "improved"

    def test_noise_widens_the_gate(self):
        # 20% slowdown, but the baseline trials themselves varied by 30%:
        # with noise_mult=1 the drop is within the measured noise.
        base = _case(wall=1.0, spread=0.3)
        slower = _case(wall=1.2)
        assert _verdict(base, slower).status == "ok"
        # Trusting the spread less (mult 0.1) exposes the regression.
        assert _verdict(base, slower, noise_mult=0.1).status == "regressed"

    def test_fresh_side_noise_also_widens(self):
        verdict = _verdict(_case(wall=1.0), _case(wall=1.2, spread=0.3))
        assert verdict.status == "ok"
        assert verdict.allowed_drop == pytest.approx(0.3)

    def test_flat_threshold_is_the_floor(self):
        verdict = _verdict(_case(wall=1.0), _case(wall=1.0), threshold=0.25)
        assert verdict.allowed_drop == 0.25

    def test_digest_mismatch_is_not_a_perf_verdict(self):
        verdict = _verdict(_case(digest="abc"), _case(digest="xyz"))
        assert verdict.status == "mismatched"
        assert verdict.allowed_drop is None

    def test_baseline_case_missing_from_fresh_run(self):
        report = compare_baselines(
            _baseline(_case("old")), _baseline(_case("other"))
        )
        statuses = {c.name: c.status for c in report.comparisons}
        assert statuses == {"old": "missing", "other": "new"}

    def test_new_case_never_fails_the_gate(self):
        report = compare_baselines(
            _baseline(_case("a")), _baseline(_case("a"), _case("b"))
        )
        assert report.passed

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_baselines(_baseline(_case()), _baseline(_case()), threshold=-1)

    def test_negative_noise_mult_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_baselines(_baseline(_case()), _baseline(_case()), noise_mult=-1)


class TestReport:
    def test_pass_fail_semantics(self):
        ok = compare_baselines(_baseline(_case()), _baseline(_case()))
        assert ok.passed and not ok.regressions and not ok.stale
        bad = compare_baselines(_baseline(_case(wall=1.0)), _baseline(_case(wall=9.0)))
        assert not bad.passed and bad.regressions
        stale = compare_baselines(
            _baseline(_case(digest="abc")), _baseline(_case(digest="xyz"))
        )
        assert not stale.passed and stale.stale and not stale.regressions

    def test_render_mentions_every_case_and_the_gate(self):
        report = compare_baselines(
            _baseline(_case("alpha"), _case("beta", digest="zzz")),
            _baseline(_case("alpha", wall=9.0), _case("beta", digest="yyy")),
        )
        text = report.render()
        assert "alpha" in text and "regressed" in text
        assert "beta" in text and "mismatched" in text
        assert "FAIL" in text

    def test_render_pass_verdict(self):
        report = compare_baselines(_baseline(_case()), _baseline(_case()))
        assert "PASS" in report.render()
