"""Tests of the end-to-end benchmark harness itself.

Run with ``python -m pytest benchmarks/e2e -q`` (about a minute; not part
of tier-1).  Every run is shrunk: a tenth of the simulated time, two
sample paths, two passes, one set-up sample.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

import compare
import layers
import run
import workloads

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SHRINK = ["--scale", "0.1", "--passes", "2", "--paths", "2", "--setup-samples", "1",
          "--seconds", "1"]
DETACHED = ("port-fifo", "port-wfq-manyflow", "sweep-smallcells")


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two ``--all`` runs of one seed: (stdout of the first, dir A, dir B)."""
    base = tmp_path_factory.mktemp("e2e")
    env = dict(os.environ, REPRO_EQUEUE="calendar")
    first = bench("--all", "--seed", "5", "--out", str(base / "a"), *SHRINK, env=env)
    assert first.returncode == 0, first.stdout + first.stderr
    second = bench("--all", "--seed", "5", "--out", str(base / "b"), *SHRINK)
    assert second.returncode == 0, second.stdout + second.stderr
    return first.stdout, base / "a", base / "b"


def load(directory, workload):
    return json.loads((directory / f"{workload}.json").read_text())


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        cls.why for cls in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in BENCHMARK["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def test_one_command_prints_every_metric_by_name(two_runs):
    stdout, _a, _b = two_runs
    printed = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in run.WORKLOAD_NAMES:
            printed.setdefault(parts[0], {})[parts[1]] = parts[3]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    expected["check_fail_frac"] = "frac"
    assert sorted(printed) == sorted(run.WORKLOAD_NAMES)
    for workload in run.WORKLOAD_NAMES:
        assert printed[workload] == expected


def test_results_record_their_provenance(two_runs):
    _stdout, a, b = two_runs
    for workload in run.WORKLOAD_NAMES:
        result = load(a, workload)
        assert result["scrubbed"] == ["REPRO_EQUEUE"]
        assert load(b, workload)["scrubbed"] == []
        assert result["seed"] == 5 and result["nproc"] >= 1
        assert result["python"] == f"{sys.version_info.major}.{sys.version_info.minor}"
        assert result["cal_digest"] and result["git_rev"]
        assert result["checks"]["failed"] == 0 and result["checks"]["attempted"] > 0
    assert not run.WORK_DIR.exists()


def test_self_fractions_sum_to_one(two_runs):
    _stdout, a, _b = two_runs
    for workload in run.WORKLOAD_NAMES:
        per_layer = load(a, workload)["per_layer"]
        total = sum(per_layer[f"{layer}.self_frac"]["value"] for layer in layers.LAYERS)
        assert total == pytest.approx(1.0, abs=0.01)


def test_exact_counts_repeat_between_runs(two_runs):
    _stdout, a, b = two_runs
    exact = [f"{layer}.calls_per_pkt" for layer in layers.LAYERS]
    exact += [name for name, _unit, _better in layers._BOUNDARY]
    for workload in run.WORKLOAD_NAMES:
        first, second = load(a, workload), load(b, workload)
        assert first["sim_digest"] == second["sim_digest"]
        for name in exact:
            if (workload, name) == ("sweep-smallcells", "other.calls_per_pkt"):
                # The sweep starts a heartbeat thread per cell, and
                # ``threading`` makes fewer calls when the thread is up
                # before ``start()`` looks.
                continue
            assert first["per_layer"][name]["value"] == second["per_layer"][name]["value"], (
                workload, name,
            )


def test_detached_workloads_make_no_obs_calls(two_runs):
    _stdout, a, _b = two_runs
    for workload in DETACHED:
        per_layer = load(a, workload)["per_layer"]
        assert per_layer["obs.calls_per_pkt"]["value"] == 0
        assert per_layer["obs.events_per_pkt"]["value"] == 0
    assert load(a, "tandem-observed")["per_layer"]["obs.calls_per_pkt"]["value"] > 0


@pytest.mark.parametrize(
    "workload, fault",
    [("port-fifo", "conformant-drop"), ("sweep-smallcells", "warm-execute")],
)
def test_an_injected_fault_fails_the_run(workload, fault):
    done = bench("--workload", workload, "--trace", "0", "--inject", fault, *SHRINK)
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0
    assert "FAILED" in done.stdout


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_line_has_exactly_the_declared_metrics(trace, section):
    done = bench("--workload", "port-fifo", "--seed", "2", "--trace", trace, *SHRINK)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]
    }


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = bench("--workload", "port-fifo", "--trace", "0", *SHRINK, cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def doctored(directory, target, **changes):
    target.mkdir()
    for file in directory.glob("*.json"):
        result = json.loads(file.read_text())
        for key, value in changes.items():
            if key in result["end_to_end"]:
                result["end_to_end"][key]["value"] *= value
            else:
                result[key] = value
        (target / file.name).write_text(json.dumps(result))
    return target


def test_compare_passes_a_result_against_itself(two_runs, capsys):
    _stdout, a, _b = two_runs
    assert compare.main([str(a), str(a)]) == 0
    out = capsys.readouterr().out
    assert "regressed" not in out and "unresolved" not in out
    rows = [line for line in out.splitlines() if line.split()[0] in run.WORKLOAD_NAMES]
    assert len(rows) == len(run.WORKLOAD_NAMES) * (len(BENCHMARK["end_to_end"]) + 1)


def test_compare_flags_a_twenty_percent_regression(two_runs, tmp_path, capsys):
    _stdout, a, _b = two_runs
    slower = doctored(a, tmp_path / "slower", cops_per_pkt=1.2)
    assert compare.main([str(a), str(slower)]) == 1
    flagged = [line for line in capsys.readouterr().out.splitlines() if "regressed" in line]
    assert len(flagged) == len(run.WORKLOAD_NAMES)
    assert all("cops_per_pkt" in line for line in flagged)
    assert compare.main([str(slower), str(a)]) == 0


def test_compare_refuses_incomparable_sets(two_runs, tmp_path):
    _stdout, a, _b = two_runs
    assert compare.main([str(a), str(doctored(a, tmp_path / "k", cal_digest="other"))]) == 4
    assert compare.main([str(a), str(doctored(a, tmp_path / "p", python="2.7"))]) == 4
    assert compare.main([str(a), str(tmp_path / "missing")]) == 4


def test_compare_reports_noise_wider_than_the_bound_as_unresolved():
    state, worsening = compare.verdict([100, 120], [105, 125], 0.08, "lower")
    assert state == "unresolved" and worsening == pytest.approx(5 / 110)
    assert compare.verdict([100, 120], [130, 140], 0.08, "lower")[0] == "regressed"
    assert compare.verdict([100, 120], [80, 90], 0.08, "lower")[0] == "ok"
    assert compare.verdict([100, 101], [105, 106], 0.08, "lower")[0] == "ok"
    assert compare.verdict([0.0], [0.02], 0.0, "lower")[0] == "regressed"
