"""End-to-end benchmark: calibrated host cost per packet on four workloads.

    python benchmarks/e2e/run.py --all [--seed S] [--out DIR]
    python benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

Every workload runs in a fresh child process with the ``REPRO_*``
variables scrubbed, so the program's defaults are what is measured.
The parent only spawns, times set-up, prints and writes results; see
README.md for the protocol and what each metric means.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import threading
import time

from calibrate import REFERENCE_COP_S, cal_digest, calibrate, cops

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
#: Sweep caches live here (inside the checkout, ignored by git), one
#: temporary directory per repetition, removed after it.
WORK_DIR = ROOT / ".e2e_work"

RESULT_SCHEMA = "repro-e2e-v1"
WORKLOAD_NAMES = ("port-fifo", "port-wfq-manyflow", "tandem-observed", "sweep-smallcells")
#: Equals ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 15
DEFAULT_SEED = 1
#: Timed repetitions of each sample path; their median counts.
DEFAULT_PASSES = 3
MIN_PATHS, MAX_PATHS = 4, 24
#: Set-up-only children per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
READY = "READY"

#: Variables that change what the program does; removed from the child.
SCRUBBED = (
    "REPRO_EQUEUE",
    "REPRO_BATCHED",
    "REPRO_MONITOR",
    "REPRO_TELEMETRY",
    "REPRO_WORKERS",
    "REPRO_CACHE",
    "REPRO_FULL",
)


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- child: one workload, measured ------------------------------------------


def _timed_phase(workload, seconds, passes, paths, reference):
    """Run the timed repetitions; returns per-path records and checks.

    ``paths`` sample paths are each timed ``passes`` times, pass-major so
    that a slow stretch of the host lands on every path alike.  When
    ``paths`` is None the first pass sizes itself: it takes new paths
    until its share of ``seconds`` is spent, so a slower host measures
    fewer paths rather than running longer.
    """
    records: list = []  # per path: {"outcome", "costs", "walls"}
    checks: list = []
    cal = calibrate()

    def measure(index: int) -> None:
        nonlocal cal
        prepared = workload.prepare(index)
        gc.collect()
        start = time.perf_counter()
        raw = workload.run(prepared)
        wall = time.perf_counter() - start
        after = calibrate()
        cost = cops(wall, cal, after)
        cal = after
        outcome = workload.inspect(prepared, raw)
        checks.extend((f"path{index}:{name}", ok) for name, ok in outcome.checks)
        if index == len(records):
            records.append({"outcome": outcome, "costs": [], "walls": []})
            if index == 0:
                checks.append(("path0:reproduces-warm-up", outcome.digest == reference))
        else:
            first = records[index]["outcome"].digest
            checks.append((f"path{index}:reproduces-pass-1", outcome.digest == first))
        records[index]["costs"].append(cost)
        records[index]["walls"].append(wall)

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        phase_start = time.perf_counter()
        while len(records) < (paths or MAX_PATHS):
            spent = time.perf_counter() - phase_start
            if paths is None and len(records) >= MIN_PATHS and spent >= seconds / passes:
                break
            measure(len(records))
        for _pass in range(passes - 1):
            for index in range(len(records)):
                measure(index)
    finally:
        gc.enable()
        gc.unfreeze()
    return records, checks


def _traced_repetition(workload, reference):
    """One repetition of path 0 under cProfile; returns (profile, cost, ok)."""
    prepared = workload.prepare(0)
    profile = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        before = calibrate()
        start = time.perf_counter()
        profile.enable()
        raw = workload.run(prepared)
        profile.disable()
        wall = time.perf_counter() - start
        after = calibrate()
    finally:
        gc.enable()
    outcome = workload.inspect(prepared, raw)
    return profile, cops(wall, before, after), outcome.digest == reference


def child_main(args) -> int:
    # Imported here: these pull in the program, which the parent never loads.
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, WORK_DIR, args.inject)
    prepared = workload.prepare(0)
    warm_up = workload.inspect(prepared, workload.run(prepared))
    print(READY, flush=True)
    if args.setup_only:
        return 0

    records, checks = _timed_phase(
        workload, args.seconds, args.passes, args.paths, warm_up.digest
    )
    checks += [(f"warm-up:{name}", ok) for name, ok in warm_up.checks]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    packets = sum(record["outcome"].packets for record in records)
    typical_cost = sum(statistics.median(record["costs"]) for record in records)
    per_rep = sorted(
        cost / record["outcome"].packets for record in records for cost in record["costs"]
    )
    walls = [wall for record in records for wall in record["walls"]]
    q1, q2, q3 = _quartiles(per_rep)
    result = {
        "schema": RESULT_SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "params": dict(workload.params, scale=args.scale),
        "cal_digest": cal_digest(),
        "paths": len(records),
        "passes": args.passes,
        "sim_digest": warm_up.digest,
        "end_to_end": {
            "cops_per_pkt": {"value": typical_cost / packets, "unit": "cops/pkt"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
        "info": {
            "cops_per_pkt_reps": {"q1": q1, "median": q2, "q3": q3, "n": len(per_rep)},
            "wall_median_s": statistics.median(walls),
            "packets": packets,
            "reps": [
                [index, wall, cost]
                for index, record in enumerate(records)
                for wall, cost in zip(record["walls"], record["costs"])
            ],
        },
    }

    if args.layers:
        per_layer = dict.fromkeys((name for name, _unit, _better in layers.PER_LAYER), 0.0)
        counts = dict(warm_up.counts)
        drive_setup = workload.drive_setup()
        if drive_setup is None:
            split, engine_counts = layers.sweep_split(workload)
            per_layer.update(split)
            counts.update(engine_counts)
        else:
            per_layer.update(layers.component_drives(drive_setup))
        per_layer.update(layers.boundary_metrics(counts))
        profile, traced_cost, same = _traced_repetition(workload, warm_up.digest)
        checks.append(("traced:reproduces-warm-up", same))
        per_layer.update(layers.fold_profile(profile, SRC, warm_up.packets))
        per_layer["trace.overhead_x"] = traced_cost / statistics.median(records[0]["costs"])
        units = {name: unit for name, unit, _better in layers.PER_LAYER}
        result["per_layer"] = {
            name: {"value": value, "unit": units[name]} for name, value in per_layer.items()
        }

    failures = [name for name, ok in checks if not ok]
    result["checks"] = {"attempted": len(checks), "failed": len(failures), "failures": failures}
    result["end_to_end"]["check_fail_frac"] = {
        "value": len(failures) / len(checks),
        "unit": "frac",
    }
    print(json.dumps(result))
    return 0


# -- parent: spawn, time set-up, print ----------------------------------------


def _child_env() -> tuple[dict, list]:
    env = dict(os.environ)
    scrubbed = sorted(name for name in SCRUBBED if env.pop(name, None) is not None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Hash randomisation moves dict/set layout, and with it host time,
    # from process to process.
    env["PYTHONHASHSEED"] = "0"
    return env, scrubbed


def _spawn(child_args: list, env: dict) -> tuple[float, str]:
    """Run one child; returns (seconds to READY, its remaining stdout).

    Raises ``RuntimeError`` when the child fails or never gets ready.
    """
    command = [sys.executable, str(HERE / "run.py"), "--child", *child_args]
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_after = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or first.strip() != READY:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return ready_after, rest


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_workload(name: str, args, *, timed: bool, layers: bool) -> dict:
    """Measure one workload in child processes; returns its result dict."""
    env, scrubbed = _child_env()
    common = [
        "--workload", name,
        "--seed", str(args.seed),
        "--scale", str(args.scale),
        "--passes", str(args.passes),
    ]
    if args.inject:
        common += ["--inject", args.inject]
    # Set-up is measured on children that do nothing else, so that the
    # parent can calibrate on both sides without disturbing a timed phase.
    setups = []
    if timed:
        before = calibrate()
        for _ in range(args.setup_samples):
            ready_after, _rest = _spawn(common + ["--setup-only"], env)
            after = calibrate()
            setups.append(cops(ready_after, before, after) * REFERENCE_COP_S)
            before = after
    # A layers-only run needs the timed phase just for the tracing
    # overhead's baseline: path 0 alone.
    paths = args.paths if timed else 1
    measure = common + ["--seconds", str(args.seconds), "--layers", str(int(layers))]
    if paths is not None:
        measure += ["--paths", str(paths)]
    ready_after, rest = _spawn(measure, env)
    result = json.loads(rest.strip().splitlines()[-1])
    if timed:
        result["end_to_end"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["info"].update(setup_samples_s=setups, setup_wall_s=ready_after)
    result.update(
        python=f"{sys.version_info.major}.{sys.version_info.minor}",
        python_full=sys.version.split()[0],
        nproc=os.cpu_count(),
        git_rev=_git_revision(),
        scrubbed=scrubbed,
        seconds=args.seconds,
    )
    return result


def _print_result(result: dict, *, timed: bool, layers: bool) -> None:
    name = result["workload"]
    print(
        f"== {name}  seed={result['seed']}  sim_digest={result['sim_digest']}  "
        f"paths={result['paths']} passes={result['passes']}  "
        f"cal_digest={result['cal_digest']} python={result['python']}"
    )
    sections = []
    if timed:
        sections.append(result["end_to_end"])
    if layers:
        sections.append(result["per_layer"])
    for section in sections:
        for metric, entry in section.items():
            print(f"{name}  {metric}  {entry['value']:.6g} {entry['unit']}")
    if timed:
        reps = result["info"]["cops_per_pkt_reps"]
        print(
            f"{name}  (info) cops_per_pkt over {reps['n']} repetitions: "
            f"median {reps['median']:.4g}, quartiles {reps['q1']:.4g}..{reps['q3']:.4g}; "
            f"raw wall median {result['info']['wall_median_s']:.4f} s; "
            f"raw set-up wall {result['info']['setup_wall_s']:.3f} s"
        )
    checks = result["checks"]
    print(f"{name}  checks: {checks['attempted']} attempted, {checks['failed']} failed")
    for failure in checks["failures"]:
        print(f"{name}  FAILED {failure}")


def _driver_line(result: dict, trace: int) -> str:
    """The one-line result the benchmark driver reads."""
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            name: entry
            for name, entry in result["end_to_end"].items()
            if name != "check_fail_frac"
        }
    checks = result["checks"]
    return json.dumps(
        {
            "correct": checks["failed"] == 0,
            "attempted": checks["attempted"],
            "failed": checks["failed"],
            "metrics": metrics,
        }
    )


def parent_main(args) -> int:
    if not (SRC / "repro").is_dir():
        # Never fall back to a copy of the program installed elsewhere.
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.all else (args.workload,)
    timed = args.trace in (None, 0)
    layers = args.trace in (None, 1)
    failed = False
    result = None
    try:
        for name in names:
            result = run_workload(name, args, timed=timed, layers=layers)
            _print_result(result, timed=timed, layers=layers)
            failed = failed or result["checks"]["failed"] > 0
            if args.out is not None:
                out = pathlib.Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                (out / f"{name}.json").write_text(
                    json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8"
                )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if args.trace is not None and not args.all:
        print(_driver_line(result, args.trace))
    return 1 if failed else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true", help="run every workload")
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only; "
                        "omitted: both")
    parser.add_argument("--out", help="directory for one JSON result per workload")
    shrink = parser.add_argument_group("shrinking a run (tests)")
    shrink.add_argument("--scale", type=float, default=1.0,
                        help="multiply simulated time / sweep seeds")
    shrink.add_argument("--passes", type=int, default=DEFAULT_PASSES)
    shrink.add_argument("--paths", type=int, default=None,
                        help="sample paths per pass (default: sized by --seconds)")
    shrink.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES)
    shrink.add_argument("--inject", choices=("conformant-drop", "warm-execute"),
                        help="inject a fault the checks must catch")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--layers", type=int, default=0, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.scale <= 0:
        print("error: --seed must be >= 0, --seconds and --scale > 0", file=sys.stderr)
        return 2
    if args.passes < 1 or args.setup_samples < 1 or (args.paths is not None and args.paths < 1):
        print("error: --passes, --paths and --setup-samples must be >= 1", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
