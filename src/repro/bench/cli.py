"""``repro bench`` — the benchmark-regression command line.

Verbs::

    repro bench run [--quick] [--trials N] [--out DIR] [--host-tag TAG]
                    [--cases a,b,...]
    repro bench compare --baseline PATH [--fresh PATH] [--threshold X]
                    [--noise-mult M] [--quick] [--trials N] [--out DIR]
    repro bench update-baseline [--dir DIR] [--host-tag TAG] [--quick]
                    [--trials N] [--cases a,b,...]

``run`` measures the suite and archives ``BENCH_<host-tag>.json`` plus a
human-readable table under ``--out`` (default ``results/bench``).
``compare`` loads a stored baseline and judges a fresh run (measured on
the spot unless ``--fresh`` points at an existing file) against it.
``update-baseline`` refreshes the committed reference under
``benchmarks/baselines``.

Exit codes (``compare``):

* ``0`` — every case within tolerance (or improved / new),
* ``1`` — at least one performance regression,
* ``2`` — usage error (also argparse's convention),
* ``4`` — stale or unusable baseline: file missing/corrupt, case
  missing from the fresh run, or workload digest mismatch.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.baseline import BenchBaseline, baseline_filename, default_host_tag
from repro.bench.compare import compare_baselines
from repro.bench.measure import CaseResult, run_suite
from repro.bench.suite import resolve_cases
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]

#: ``compare`` exit code for a stale/unusable baseline (vs 1 = slower).
EXIT_STALE_BASELINE = 4

DEFAULT_OUT_DIR = pathlib.Path("results") / "bench"
DEFAULT_BASELINE_DIR = pathlib.Path("benchmarks") / "baselines"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run, record, and gate simulator benchmarks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--quick",
            action="store_true",
            help="CI-sized workloads (shorter sim time / fewer ops); "
            "quick and full baselines have different case digests and "
            "never cross-compare",
        )
        p.add_argument(
            "--trials",
            type=int,
            default=None,
            help="timed repetitions per case (default: 5, or 3 with --quick)",
        )
        p.add_argument(
            "--cases",
            default=None,
            help="comma-separated case names (default: the whole suite)",
        )
        p.add_argument(
            "--host-tag",
            default=None,
            help=f"baseline tag (default: {default_host_tag()!r})",
        )

    run_p = sub.add_parser("run", help="measure the suite and archive results")
    common(run_p)
    run_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT_DIR,
        help=f"output directory (default: {DEFAULT_OUT_DIR})",
    )

    cmp_p = sub.add_parser("compare", help="gate a fresh run against a baseline")
    common(cmp_p)
    cmp_p.add_argument(
        "--baseline",
        type=pathlib.Path,
        required=True,
        help="stored BENCH_*.json to compare against (file, or a "
        "directory searched for BENCH_<host-tag>.json)",
    )
    cmp_p.add_argument(
        "--fresh",
        type=pathlib.Path,
        default=None,
        help="existing BENCH_*.json to use as the fresh side "
        "(default: measure the suite now)",
    )
    cmp_p.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="flat relative slowdown tolerance (default: 0.05 = 5%%)",
    )
    cmp_p.add_argument(
        "--noise-mult",
        type=float,
        default=1.0,
        help="multiplier on the measured trial spread; the allowed drop "
        "is max(threshold, noise_mult * spread) (default: 1.0)",
    )
    cmp_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="also archive the fresh measurement into this directory",
    )

    upd_p = sub.add_parser(
        "update-baseline", help="measure and store the reference baseline"
    )
    common(upd_p)
    upd_p.add_argument(
        "--dir",
        type=pathlib.Path,
        default=DEFAULT_BASELINE_DIR,
        dest="directory",
        help=f"baseline directory (default: {DEFAULT_BASELINE_DIR})",
    )
    return parser


def _split_cases(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise ConfigurationError("--cases given but no case names parsed")
    return names


def _trials(args: argparse.Namespace) -> int:
    if args.trials is not None:
        return args.trials
    return 3 if args.quick else 5


def _render_results(results: list[CaseResult]) -> str:
    header = (
        f"{'case':<18} {'kind':<6} {'trials':>6} {'wall s':>9} "
        f"{'events/s':>12} {'packets/s':>12} {'spread':>7} {'rss MB':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        pps = "-" if r.packets_per_sec is None else f"{r.packets_per_sec:>12,.0f}"
        lines.append(
            f"{r.name:<18} {r.kind:<6} {r.trials:>6} {r.wall_time:>9.3f} "
            f"{r.events_per_sec:>12,.0f} {pps:>12} {r.rel_spread:>6.1%} "
            f"{r.peak_rss_bytes / (1024 * 1024):>7.1f}"
        )
    return "\n".join(lines)


def _measure(args: argparse.Namespace) -> BenchBaseline:
    cases = resolve_cases(_split_cases(args.cases), quick=args.quick)
    mode = "quick" if args.quick else "full"
    print(
        f"# measuring {len(cases)} case(s), {_trials(args)} trial(s) each "
        f"({mode} mode)",
        file=sys.stderr,
    )
    results = run_suite(
        cases,
        trials=_trials(args),
        progress=lambda r: print(
            f"#   {r.name}: {r.events_per_sec:,.0f} events/s "
            f"(spread {r.rel_spread:.1%})",
            file=sys.stderr,
        ),
    )
    return BenchBaseline.from_results(results, host_tag=args.host_tag)


def _archive(baseline: BenchBaseline, out: pathlib.Path) -> pathlib.Path:
    path = baseline.write(out)
    table = _render_results(list(baseline.cases))
    (out / f"BENCH_{baseline.host_tag}.txt").write_text(table + "\n", encoding="utf-8")
    return path


def _cmd_run(args: argparse.Namespace) -> int:
    baseline = _measure(args)
    path = _archive(baseline, args.out)
    print(_render_results(list(baseline.cases)))
    print(f"# baseline written to {path}", file=sys.stderr)
    return 0


def _resolve_baseline_path(args: argparse.Namespace) -> pathlib.Path:
    path = args.baseline
    if path.is_dir():
        return path / baseline_filename(args.host_tag or default_host_tag())
    return path


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        baseline = BenchBaseline.load(_resolve_baseline_path(args))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STALE_BASELINE
    if args.fresh is not None:
        fresh = BenchBaseline.load(args.fresh)
    else:
        fresh = _measure(args)
        if args.out is not None:
            _archive(fresh, args.out)
    report = compare_baselines(
        baseline, fresh, threshold=args.threshold, noise_mult=args.noise_mult
    )
    print(report.render())
    if report.stale:
        names = ", ".join(c.name for c in report.stale)
        print(
            f"error: baseline is stale for: {names} "
            "(workload changed; run 'repro bench update-baseline')",
            file=sys.stderr,
        )
        return EXIT_STALE_BASELINE
    if report.regressions:
        names = ", ".join(c.name for c in report.regressions)
        print(f"error: performance regression in: {names}", file=sys.stderr)
        return 1
    return 0


def _cmd_update_baseline(args: argparse.Namespace) -> int:
    baseline = _measure(args)
    path = baseline.write(args.directory)
    print(_render_results(list(baseline.cases)))
    print(f"# baseline updated: {path}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "compare":
            return _cmd_compare(args)
        return _cmd_update_baseline(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
