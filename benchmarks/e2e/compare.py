"""Compare two result sets against the bounds in BENCHMARK.json.

    python benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are result files written by
``run.py --out``, or directories searched recursively for them; several
runs of one workload in a set are summarised by their median.  One row
per workload x end-to-end metric:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the runs within a set spread wider than the bound
  and the two sets overlap, so the difference cannot be told from noise.

Exit 0 when no row regressed, 1 when one did, 2 on usage errors, 4 when
the sets cannot be compared (different calibration kernel, Python minor
version or workload parameters, or a workload missing from one set).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

from run import RESULT_SCHEMA

DEFAULT_BENCHMARK = pathlib.Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
#: Reported by every result but not listed in BENCHMARK.json (a metric
#: there may never read 0): any failed check is a regression.
CHECK_METRIC = {"name": "check_fail_frac", "unit": "frac", "better": "lower", "bound": 0.0}
#: What must match for two results to be comparable.
IDENTITY = ("cal_digest", "python", "params")


class Unusable(Exception):
    """The two sets cannot be compared."""


def load_set(path: pathlib.Path) -> dict:
    """``{workload: [result, ...]}`` from a result file or a directory of them."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    runs: dict = {}
    for file in files:
        try:
            raw = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise Unusable(f"cannot read {file}: {exc}") from None
        if isinstance(raw, dict) and raw.get("schema") == RESULT_SCHEMA:
            runs.setdefault(raw["workload"], []).append(raw)
    if not runs:
        raise Unusable(f"no {RESULT_SCHEMA} results under {path}")
    return runs


def _identity(result: dict) -> dict:
    return {key: result.get(key) for key in IDENTITY}


def check_comparable(a: dict, b: dict) -> None:
    if sorted(a) != sorted(b):
        raise Unusable(f"workloads differ: {sorted(a)} vs {sorted(b)}")
    for workload in a:
        identities = [_identity(result) for result in a[workload] + b[workload]]
        for other in identities[1:]:
            if other != identities[0]:
                raise Unusable(
                    f"{workload}: results are not comparable: {identities[0]} vs {other}"
                )


def _spread(values: list) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def verdict(a: list, b: list, bound: float, better: str) -> tuple[str, float]:
    """``(ok | regressed | unresolved, worsening as a share of A's median)``."""
    sign = 1.0 if better == "lower" else -1.0
    median_a = statistics.median(a)
    median_b = statistics.median(b)
    if median_a:
        worsening = sign * (median_b - median_a) / abs(median_a)
    else:
        worsening = float("inf") if sign * median_b > 0 else 0.0
    if max(_spread(a), _spread(b)) > bound:
        worse = [sign * value for value in b]
        base = [sign * value for value in a]
        if min(worse) > max(base) and worsening > bound:
            return "regressed", worsening
        if max(worse) < min(base):
            return "ok", worsening
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare(a: dict, b: dict, metrics: list) -> list:
    """Rows ``(workload, metric, unit, median A, median B, worsening, verdict)``."""
    rows = []
    for workload in a:
        for metric in metrics:
            name = metric["name"]
            values_a = [run["end_to_end"][name]["value"] for run in a[workload]]
            values_b = [run["end_to_end"][name]["value"] for run in b[workload]]
            state, worsening = verdict(values_a, values_b, metric["bound"], metric["better"])
            rows.append(
                (
                    workload, name, metric["unit"],
                    statistics.median(values_a), statistics.median(values_b),
                    worsening, state,
                )
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=pathlib.Path, help="parent result file or directory")
    parser.add_argument("b", type=pathlib.Path, help="change result file or directory")
    parser.add_argument("--benchmark", type=pathlib.Path, default=DEFAULT_BENCHMARK)
    args = parser.parse_args(argv)
    try:
        metrics = json.loads(args.benchmark.read_text(encoding="utf-8"))["end_to_end"]
        set_a, set_b = load_set(args.a), load_set(args.b)
        check_comparable(set_a, set_b)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {args.benchmark}: {exc}", file=sys.stderr)
        return 4
    except Unusable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    rows = compare(set_a, set_b, metrics + [CHECK_METRIC])
    print(f"{'workload':20s} {'metric':16s} {'A':>12s} {'B':>12s} {'worse by':>9s}  verdict")
    for workload, name, unit, median_a, median_b, worsening, state in rows:
        print(
            f"{workload:20s} {name:16s} {median_a:12.5g} {median_b:12.5g} "
            f"{worsening:+9.1%}  {state}  ({unit})"
        )
    for workload in set_a:
        digests = {run["sim_digest"] for run in set_a[workload] + set_b[workload]}
        seeds = {run["seed"] for run in set_a[workload] + set_b[workload]}
        if len(seeds) == 1 and len(digests) > 1:
            print(f"note: {workload}: sim_digest differs at seed {seeds.pop()}: "
                  "the simulated results moved")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
