"""The ``repro bench`` CLI: verbs, files written, and exit codes.

The compare exit contract is what CI leans on:
0 pass, 1 regression, 2 usage error, 4 stale/unusable baseline.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.baseline import BENCH_SCHEMA, BenchBaseline
from repro.bench.cli import EXIT_STALE_BASELINE, main
from repro.bench.measure import CaseResult

# One tiny, fast micro case keeps each CLI invocation ~milliseconds.
FAST = ["--quick", "--trials", "1", "--cases", "engine-chain"]


def _run_baseline(tmp_path, tag="t"):
    out = tmp_path / "out"
    assert main(["run", *FAST, "--out", str(out), "--host-tag", tag]) == 0
    return out / f"BENCH_{tag}.json"


def _resign(path, mutate):
    """Apply ``mutate`` to a loaded baseline's cases and re-sign it."""
    baseline = BenchBaseline.load(path)
    cases = tuple(mutate(case) for case in baseline.cases)
    doctored = BenchBaseline(
        host_tag=baseline.host_tag,
        python=baseline.python,
        platform=baseline.platform,
        cases=cases,
    )
    return doctored.write(path.parent.parent / "doctored")


class TestRun:
    def test_writes_schema_versioned_baseline_and_table(self, tmp_path, capsys):
        path = _run_baseline(tmp_path)
        raw = json.loads(path.read_text())
        assert raw["schema"] == BENCH_SCHEMA
        assert set(raw["cases"]) == {"engine-chain"}
        assert path.with_suffix(".txt").exists()
        assert "events/s" in capsys.readouterr().out

    def test_unknown_case_is_usage_error(self, tmp_path):
        assert main(["run", "--cases", "nope", "--out", str(tmp_path)]) == 2

    def test_removed_backend_flag_is_usage_error(self, tmp_path):
        # The flag went with the second event queue; argparse rejects it
        # whatever value a stale script passes.
        with pytest.raises(SystemExit) as exc:
            main(["run", *FAST, "--backend", "heap", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestUpdateBaseline:
    def test_writes_into_baseline_dir(self, tmp_path):
        target = tmp_path / "baselines"
        code = main(
            ["update-baseline", *FAST, "--dir", str(target), "--host-tag", "ref"]
        )
        assert code == 0
        assert (target / "BENCH_ref.json").exists()


class TestCompareExitCodes:
    def test_fresh_baseline_passes(self, tmp_path):
        path = _run_baseline(tmp_path)
        code = main(
            ["compare", "--baseline", str(path), "--fresh", str(path)]
        )
        assert code == 0

    def test_doctored_faster_baseline_regresses(self, tmp_path, capsys):
        path = _run_baseline(tmp_path)

        def tenfold_faster(case):
            return CaseResult(
                name=case.name,
                kind=case.kind,
                digest=case.digest,
                events=case.events,
                packets=case.packets,
                wall_times=tuple(t / 10 for t in case.wall_times),
                peak_rss_bytes=case.peak_rss_bytes,
            )

        doctored = _resign(path, tenfold_faster)
        code = main(
            ["compare", "--baseline", str(doctored), "--fresh", str(path)]
        )
        assert code == 1
        assert "regression" in capsys.readouterr().err

    def test_missing_baseline_file(self, tmp_path):
        path = _run_baseline(tmp_path)
        code = main(
            [
                "compare",
                "--baseline",
                str(tmp_path / "BENCH_absent.json"),
                "--fresh",
                str(path),
            ]
        )
        assert code == EXIT_STALE_BASELINE

    def test_hand_edited_baseline_fails_integrity(self, tmp_path):
        path = _run_baseline(tmp_path)
        raw = json.loads(path.read_text())
        raw["cases"]["engine-chain"]["wall_times"] = [1e-9]
        edited = tmp_path / "BENCH_edited.json"
        edited.write_text(json.dumps(raw))
        fresh = _run_baseline(tmp_path, tag="fresh")
        code = main(["compare", "--baseline", str(edited), "--fresh", str(fresh)])
        assert code == EXIT_STALE_BASELINE

    def test_workload_digest_mismatch_is_stale(self, tmp_path, capsys):
        path = _run_baseline(tmp_path)
        doctored = _resign(
            path,
            lambda case: CaseResult(
                name=case.name,
                kind=case.kind,
                digest="0" * 64,
                events=case.events,
                packets=case.packets,
                wall_times=case.wall_times,
                peak_rss_bytes=case.peak_rss_bytes,
            ),
        )
        code = main(["compare", "--baseline", str(doctored), "--fresh", str(path)])
        assert code == EXIT_STALE_BASELINE
        assert "stale" in capsys.readouterr().err

    def test_baseline_dir_resolved_by_host_tag(self, tmp_path):
        path = _run_baseline(tmp_path)
        code = main(
            [
                "compare",
                "--baseline",
                str(path.parent),
                "--fresh",
                str(path),
                "--host-tag",
                "t",
            ]
        )
        assert code == 0


class TestTopLevelDelegation:
    def test_python_m_repro_bench_delegates(self, tmp_path):
        from repro.__main__ import main as repro_main

        out = tmp_path / "out"
        code = repro_main(
            ["bench", "run", *FAST, "--out", str(out), "--host-tag", "x"]
        )
        assert code == 0
        assert (out / "BENCH_x.json").exists()

    @pytest.mark.parametrize("verb", ["run", "compare", "update-baseline"])
    def test_verbs_are_registered(self, verb):
        from repro.bench.cli import build_parser

        # argparse exits 2 on missing required args, 0 on --help; both
        # prove the verb exists (unknown verbs also exit 2 but without
        # registering, so check the subparser table directly).
        parser = build_parser()
        actions = [
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        ]
        assert verb in actions[0].choices
