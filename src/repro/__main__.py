"""Command-line entry point: regenerate the paper's figures and tables.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro figure1             # run one figure (fast mode)
    python -m repro figure4 --full      # paper-faithful sizing
    python -m repro all --out results/  # everything, archived to files
    python -m repro all --workers 4 --cache-dir results/cache
    python -m repro run --spec spec.json

    python -m repro campaign run --spec spec.json --workers 4
    python -m repro campaign status     # cache, entries, queue state
    python -m repro campaign clear-cache

    python -m repro campaign sweep run --spec sweep.json --cache-dir d
    python -m repro campaign sweep run --spec sweep.json --owner w2 --wait
    python -m repro campaign sweep status --spec sweep.json --cache-dir d
    python -m repro campaign sweep aggregate --spec sweep.json --out agg.json

    python -m repro obs trace --spec spec.json --trace-out trace.jsonl
    python -m repro obs trace --input trace.jsonl --flow 3 --type drop
    python -m repro obs trace --input net.jsonl --node n0->n1 --type drop
    python -m repro obs report          # summarize results/telemetry
    python -m repro obs timeline        # sim-time series over a demo run
    python -m repro obs monitor         # live analytic-bound conformance
    python -m repro obs monitor --undersized   # provoke violations

    python -m repro net demo            # 3-hop tandem with flow churn
    python -m repro net demo --hops 5 --seed 3 --no-churn
    python -m repro net reclaim         # live reprovisioning vs static
    python -m repro net reclaim --trace-out results/reclaim.jsonl

    python -m repro check src/repro tests benchmarks examples
    python -m repro check --list-rules

Each verb accepts only the options it reads (``python -m repro <verb>
--help``).  ``--workers``, ``--cache-dir`` and ``--telemetry-dir`` resolve
in :func:`~repro.experiments.campaign.default_runner`: the flag, else its
``REPRO_*`` variable, else the verb's default (docs/campaigns.md).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.errors import ConfigurationError
from repro.experiments.campaign import default_runner
from repro.experiments.campaign.job import CAMPAIGN_SCHEMA
from repro.experiments.config import positive
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.report import format_figure
from repro.experiments.sweep import DEFAULT_HEARTBEAT_TIMEOUT
from repro.obs.timeline import DEFAULT_INTERVAL


def _positive(convert: type):
    """An argparse type over :func:`positive`: a refused value is a usage error."""

    def parse(text: str):
        try:
            return positive(text, convert)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _finite(text: str) -> float:
    """An argparse type for a time bound: NaN or an infinity would switch the filter off."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not -float("inf") < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite float, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    path, count, seconds = pathlib.Path, _positive(int), _positive(float)

    def options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    def directory(name: str, default: bool | None, parser=None) -> argparse.ArgumentParser:
        # ``True`` is the campaign verbs' default: results/<name> unless
        # the variable names another directory (see default_runner).
        parser = parser or options()
        fallback = f"results/{name}" if default else "none"
        text = f"{name} directory (default: REPRO_{name.upper()}, else {fallback})"
        parser.add_argument(f"--{name}-dir", type=path, default=default, help=text)
        return parser

    def runner(default: bool | None) -> argparse.ArgumentParser:
        parser = directory("telemetry", default, directory("cache", default))
        parser.add_argument("--workers", type=count, help="processes (REPRO_WORKERS, else 1)")
        return parser

    figure = options(runner(None))
    figure.add_argument("--full", action="store_true", help="paper-faithful sizing (REPRO_FULL)")
    figure.add_argument("--out", type=path, help="directory to archive the figures into")
    spec, sweep_spec, tandem, trace, undersized = (options() for _ in range(5))
    spec.add_argument("--spec", type=path, required=True, help="JSON scenario spec")
    sweep_spec.add_argument("--spec", type=path, required=True, help="JSON sweep spec")
    tandem.add_argument("--hops", type=count, default=3, help="tandem length (default: 3)")
    tandem.add_argument("--seed", type=int, default=0, help="root seed (default: 0)")
    demo = options(tandem)
    demo.add_argument("--no-churn", action="store_true", help="no flow churn, no reclamation")
    sampling = options(demo)
    sampling.add_argument(
        "--interval", type=seconds, default=DEFAULT_INTERVAL,
        help="sampling cadence in simulated seconds (default: %(default)s)",
    )
    sampling.add_argument("--timeline-out", type=path, help="write the timeline as JSONL")
    sampling.add_argument("--json", action="store_true", dest="as_json", help="print JSON")
    undersized.add_argument("--undersized", action="store_true", help="the undersized tandem")
    queue = directory("cache", True)
    queue.add_argument(
        "--heartbeat-timeout", type=seconds, default=DEFAULT_HEARTBEAT_TIMEOUT,
        help="seconds after which a silent claim is orphaned (default: %(default)s)",
    )
    worker = directory("telemetry", True)
    worker.add_argument("--owner", help="unique worker id (default: <host>-<pid>)")
    worker.add_argument("--wait", action="store_true", help="poll until every cell is done")
    aggregate = directory("cache", True)
    aggregate.add_argument("--out", type=path, help="default: <cache>/aggregates/<digest>.json")
    source = trace.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=path, help="JSONL trace to read")
    source.add_argument("--spec", type=path, help="trace this spec's first job")
    trace.add_argument(
        "--trace-out", type=path, default=path("results", "trace.jsonl"),
        help="where --spec writes the trace (default: %(default)s)",
    )
    trace.add_argument("--flow", type=int, action="append", help="only this flow id")
    trace.add_argument("--type", action="append", dest="event_type", help="only this kind")
    trace.add_argument("--node", action="append", help="only this node ('': one port)")
    trace.add_argument("--since", type=_finite, help="drop events before this sim time")
    trace.add_argument("--until", type=_finite, help="drop events after this sim time")
    reclaim = options(runner(None), tandem)
    reclaim.add_argument("--trace-out", type=path, help="also trace one run, for RPR206")

    verbs = {
        **{name: (run_figures, figure) for name in [*FIGURES, "all"]},
        "list": (run_list,),
        "run": (run_spec_file, runner(None), spec),
        "campaign run": (run_spec_file, runner(True), spec),
        "campaign status": (run_campaign_status, queue),
        "campaign clear-cache": (run_campaign_clear, directory("cache", True)),
        "campaign sweep run": (run_sweep, sweep_spec, queue, worker),
        "campaign sweep status": (run_sweep_status, sweep_spec, queue),
        "campaign sweep aggregate": (run_sweep_aggregate, sweep_spec, aggregate),
        "obs trace": (run_obs_trace, trace),
        "obs report": (run_obs_report, directory("telemetry", True)),
        "obs timeline": (run_obs_timeline, sampling),
        "obs monitor": (run_obs_monitor, sampling, undersized),
        "net demo": (run_net_demo, demo),
        "net reclaim": (run_net_reclaim, reclaim),
    }
    about = {
        "all": "Every figure, in order.",
        "campaign": "Pre-flighted spec runs and the result cache.",
        "campaign sweep": "Claim-based sweep workers over a shared cache.",
        "obs": "Traces, telemetry, timelines and the live monitor.",
        "net": "Multi-hop fabric demos.",
    }
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from 'Scalable QoS Provision Through "
        "Buffer Management' (SIGCOMM 1998).",
    )
    groups = {"": parser.add_subparsers(dest="target", metavar="verb", required=True)}
    for words, (handler, *parents) in verbs.items():
        prefix, _, name = words.rpartition(" ")
        if prefix not in groups:
            outer, _, group = prefix.rpartition(" ")
            groups[prefix] = groups[outer].add_parser(
                group, help=about[prefix]
            ).add_subparsers(dest=f"{group}_verb", metavar="verb", required=True)
        caption = FIGURES[name].caption if name in FIGURES else about.get(words)
        verb = groups[prefix].add_parser(
            name, parents=parents, help=caption or handler.__doc__
        )
        verb.set_defaults(handler=handler)
    return parser


def _print_campaign_stats(runner) -> None:
    stats = runner.last_stats
    print(
        f"[campaign: {stats.submitted} jobs, {stats.unique} unique, "
        f"{stats.cache_hits} cached, {stats.executed} executed]"
    )


def run_figures(args: argparse.Namespace) -> int:
    """Run one figure, or every figure for ``all``, and print its table."""
    runner = default_runner(args.workers, args.cache_dir, args.telemetry_dir)
    for name in FIGURES if args.target == "all" else [args.target]:
        text = format_figure(run_figure(name, False if args.full else None, runner))
        print(text)
        _print_campaign_stats(runner)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(text + "\n")
    return 0


def run_list(args: argparse.Namespace) -> int:
    """What can be reproduced."""
    for name, figure in FIGURES.items():
        print(f"{name:10s} {figure.caption}")
    return 0


def _describe(scenario) -> str:
    """One line on a scenario's shape, for the spec table's heading."""
    from repro.units import to_mbytes

    nodes = [node for node in scenario.nodes if node.scheme is not None]
    schemes = " / ".join(dict.fromkeys(node.scheme.value for node in nodes))
    sizes = sorted({to_mbytes(node.buffer_size) for node in nodes})
    links = len(scenario.links)
    churn = ", churn" if scenario.churn is not None else ""
    return (
        f"{schemes}, B = {' / '.join(f'{size:g}' for size in sizes)} MB, "
        f"{links} link{'s' * (links != 1)}{churn}"
    )


def run_spec_file(args: argparse.Namespace) -> int:
    """Run a declarative scenario spec; 'campaign run' pre-flights it first."""
    from repro.experiments.report import format_table
    from repro.experiments.spec import load_specs, run_spec

    preflight = args.target == "campaign"
    runner = default_runner(
        args.workers, args.cache_dir, args.telemetry_dir, preflight=preflight
    )
    for spec in load_specs(args.spec):
        results = run_spec(spec, runner=runner)
        rows = [[label, str(value)] for label, value in results.items()]
        print(f"{spec.name} [{_describe(spec.scenario)}]")
        print(format_table(["metric", "mean ± 95% CI"], rows))
        _print_campaign_stats(runner)
        print()
    return 0


def run_campaign_status(args: argparse.Namespace) -> int:
    """Cache entries, lifetime hit/miss/store counts and claims."""
    from repro import units
    from repro.experiments.sweep import scan_claims

    cache = default_runner(cache_dir=args.cache_dir).cache
    entries = cache.entries()
    stats = cache.persisted_stats()
    claims = scan_claims(cache.root, args.heartbeat_timeout)
    failed = sum(claim.failed for claim in claims)
    orphaned = sum(claim.stale for claim in claims)
    print(f"cache directory : {cache.root}")
    print(f"schema tag      : {CAMPAIGN_SCHEMA}")
    print(f"entries         : {len(entries)}")
    print(f"size            : {units.to_mbytes(cache.size_bytes()):.3f} MB")
    print(f"cached bytes    : {cache.size_bytes()}")
    print(f"claimed         : {len(claims) - failed - orphaned}")
    print(f"orphaned claims : {orphaned}")
    print(f"failed claims   : {failed}")
    print(f"lifetime hits   : {stats['hits']}")
    print(f"lifetime misses : {stats['misses']}")
    print(f"lifetime stores : {stats['stores']}")
    return 0


def run_campaign_clear(args: argparse.Namespace) -> int:
    """Delete every cached result and failure claim (never a live claim)."""
    from repro.experiments.sweep import release_claim, scan_claims

    cache = default_runner(cache_dir=args.cache_dir).cache
    removed = cache.clear()
    failed = [claim.digest for claim in scan_claims(cache.root) if claim.failed]
    for digest in failed:
        release_claim(cache.root / f"{digest}.claim")
    print(
        f"removed {removed} cached result(s) and {len(failed)} failure "
        f"claim(s) from {cache.root}"
    )
    return 0


def run_sweep(args: argparse.Namespace) -> int:
    """Claim and run cells until none is left unclaimed."""
    from repro.experiments.sweep import load_sweep, run_sweep_worker, sweep_status

    spec = load_sweep(args.spec)
    runner = default_runner(cache_dir=args.cache_dir, telemetry_dir=args.telemetry_dir)
    summary = run_sweep_worker(
        spec,
        runner.cache,
        owner=args.owner,
        heartbeat_timeout=args.heartbeat_timeout,
        wait=args.wait,
        preflight=True,
        telemetry_dir=runner.telemetry_dir,
    )
    status = sweep_status(spec, runner.cache, heartbeat_timeout=args.heartbeat_timeout)
    print(f"sweep           : {spec.name} ({spec.digest()[:16]})")
    print(f"worker          : {summary.owner}")
    print(f"executed        : {summary.executed}")
    print(f"reaped claims   : {summary.reaped}")
    print(f"passes          : {summary.passes}")
    print(f"cells           : {status.cells}")
    print(f"completed       : {status.completed}")
    print(f"failed          : {status.failed}")
    print(f"outstanding     : {summary.outstanding}")
    return 0 if status.complete else 1


def run_sweep_status(args: argparse.Namespace) -> int:
    """Completed, claimed, orphaned and pending cells."""
    from repro.experiments.sweep import load_sweep, sweep_status

    spec = load_sweep(args.spec)
    cache = default_runner(cache_dir=args.cache_dir).cache
    status = sweep_status(spec, cache, heartbeat_timeout=args.heartbeat_timeout)
    print(f"sweep           : {spec.name} ({spec.digest()[:16]})")
    print(f"cache directory : {cache.root}")
    print(f"cells           : {status.cells}")
    print(f"completed       : {status.completed}")
    print(f"claimed         : {status.claimed}")
    print(f"orphaned claims : {status.orphaned}")
    print(f"pending         : {status.pending}")
    print(f"failed          : {status.failed}")
    return 0 if status.complete else 1


def run_sweep_aggregate(args: argparse.Namespace) -> int:
    """Fold a complete sweep into its aggregate file."""
    from repro.experiments.sweep import (
        aggregate_sweep,
        default_aggregate_path,
        load_sweep,
        write_aggregate,
    )

    spec = load_sweep(args.spec)
    cache = default_runner(cache_dir=args.cache_dir).cache
    aggregate = aggregate_sweep(spec, cache)
    out = args.out if args.out is not None else default_aggregate_path(cache.root, spec)
    path = write_aggregate(aggregate, out)
    print(f"sweep           : {spec.name} ({spec.digest()[:16]})")
    print(f"cells           : {aggregate['cells']}")
    print(f"groups          : {len(aggregate['groups'])}")
    print(f"aggregate       : {path}")
    return 0


def run_obs_trace(args: argparse.Namespace) -> int:
    """Filter a JSONL event trace, or trace a spec's first job."""
    import json

    from repro.obs import event_to_dict, filter_events, read_events

    trace_path = args.input
    if trace_path is None:
        from repro.experiments.fabric import run_fabric
        from repro.experiments.spec import load_specs
        from repro.obs import JsonlSink

        trace_path = args.trace_out
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with JsonlSink(trace_path) as sink:
            run_fabric(load_specs(args.spec)[0].jobs()[0].scenario, sink=sink)
        print(f"# trace written to {trace_path}", file=sys.stderr)
    events = filter_events(
        read_events(trace_path),
        flows=args.flow,
        kinds=args.event_type,
        nodes=args.node,
        since=args.since,
        until=args.until,
    )
    try:
        for event in events:
            print(json.dumps(event_to_dict(event)))
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream consumer (head, jq -n, ...) closed the pipe:
        # normal for a line-dump tool, not an error.  Re-point stdout
        # at devnull so interpreter shutdown doesn't re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def run_obs_report(args: argparse.Namespace) -> int:
    """Summarize run telemetry."""
    from repro.obs.telemetry import CampaignReport, read_telemetry_dir

    directory = default_runner(telemetry_dir=args.telemetry_dir).telemetry_dir
    entries = read_telemetry_dir(directory)
    print(f"telemetry dir   : {directory}")
    if not entries:
        print("no telemetry found; run a campaign first")
        return 0
    print(CampaignReport.from_telemetry(entries).render())
    return 0


def _run_demo(args: argparse.Namespace, monitor=None):
    """The demo tandem of ``obs timeline``/``obs monitor``, sampled.

    Returns the scenario, the result and the timeline (``None`` when a
    monitor rides alone, without ``--timeline-out``).
    """
    from repro.experiments.fabric import run_fabric
    from repro.experiments.fabric.demo import (
        TARGET_FLOW_ID,
        demo_tandem,
        undersized_tandem,
    )
    from repro.obs.timeline import Timeline

    timeline = None
    if monitor is None or args.timeline_out is not None:
        timeline = Timeline(interval=args.interval, flows=(TARGET_FLOW_ID,))
    if getattr(args, "undersized", False):
        scenario = undersized_tandem(hops=args.hops, seed=args.seed)
    else:
        scenario = demo_tandem(
            hops=args.hops,
            seed=args.seed,
            churn=not args.no_churn,
            reclamation=not args.no_churn,
            delay_histograms=False,
        )
    result = run_fabric(scenario, timeline=timeline, monitor=monitor)
    if args.timeline_out is not None:
        args.timeline_out.parent.mkdir(parents=True, exist_ok=True)
        timeline.write_jsonl(args.timeline_out)
        print(f"# timeline written to {args.timeline_out}", file=sys.stderr)
    return scenario, result, timeline


def run_obs_timeline(args: argparse.Namespace) -> int:
    """Sample the demo tandem and render its sim-time series."""
    import json

    scenario, result, timeline = _run_demo(args)
    if args.as_json:
        print(json.dumps(timeline.summary().to_dict(), sort_keys=True))
        return 0
    print(
        f"timeline: {args.hops}-hop tandem, seed {args.seed}, "
        f"{scenario.sim_time:g} s simulated, {timeline.ticks} samples "
        f"every {args.interval:g} s, {result.events_processed} events"
    )
    print()
    print(timeline.render())
    return 0


def run_obs_monitor(args: argparse.Namespace) -> int:
    """Run the demo tandem under the live conformance monitor."""
    import json

    from repro.obs.monitor import ConformanceMonitor

    scenario, result, _timeline = _run_demo(
        args, ConformanceMonitor(interval=args.interval)
    )
    report = result.monitor_report
    if args.as_json:
        print(json.dumps(report.to_dict(), sort_keys=True))
        return 0 if report.ok else 1
    flavour = "undersized" if args.undersized else "reference"
    print(
        f"monitor: {flavour} {args.hops}-hop tandem, seed {args.seed}, "
        f"{scenario.sim_time:g} s simulated, {result.events_processed} events"
    )
    print()
    print(report.render())
    return 0 if report.ok else 1


def run_net_demo(args: argparse.Namespace) -> int:
    """Tandem with flow churn: per-hop drops, end-to-end delay, blocking."""
    from repro.experiments.fabric import run_fabric
    from repro.experiments.fabric.demo import TARGET_FLOW_ID, demo_tandem
    from repro.experiments.report import format_table
    from repro.units import to_millis

    scenario = demo_tandem(hops=args.hops, seed=args.seed, churn=not args.no_churn)
    result = run_fabric(scenario)

    print(
        f"tandem demo: {args.hops} hop(s), seed {args.seed}, "
        f"{scenario.sim_time:g} s simulated, "
        f"{result.events_processed} events"
    )
    print()
    rows = []
    for link in scenario.links:
        stats = result.links[link.label].flow_stats
        offered = sum(s.offered_packets for s in stats.values())
        dropped = sum(s.dropped_packets for s in stats.values())
        departed = sum(s.departed_packets for s in stats.values())
        target = stats.get(TARGET_FLOW_ID)
        rows.append(
            [
                link.label,
                str(offered),
                str(dropped),
                str(departed),
                f"{100.0 * dropped / offered:.2f}" if offered else "0.00",
                str(0 if target is None else target.dropped_packets),
            ]
        )
    print("per-hop drops (measurement window):")
    print(
        format_table(
            ["link", "offered", "dropped", "departed", "drop %", f"flow {TARGET_FLOW_ID} drops"],
            rows,
        )
    )
    print()

    delivered = result.end_to_end.flows.get(TARGET_FLOW_ID)
    print(f"end-to-end, target flow {TARGET_FLOW_ID} (conformant):")
    if delivered is None or delivered.departed_packets == 0:
        print("  no packets delivered in the measurement window")
    else:
        quantiles = "  ".join(
            f"p{q:g} {to_millis(result.delay_percentile(TARGET_FLOW_ID, q)):.2f} ms"
            for q in (50, 95, 99)
        )
        print(
            f"  {delivered.departed_packets} packets delivered, "
            f"mean {to_millis(delivered.mean_delay):.2f} ms, {quantiles}, "
            f"max {to_millis(delivered.delay_max):.2f} ms"
        )
    print()

    if result.churn is not None:
        report = result.churn
        print(
            f"churn: {report.arrivals} arrivals, {report.accepted} accepted, "
            f"{report.blocked} blocked "
            f"({report.blocked_bandwidth} bandwidth-limited / "
            f"{report.blocked_buffer} buffer-limited / "
            f"{report.blocked_unknown} unattributed), "
            f"blocking probability {report.blocking_probability:.3f}"
        )
        for node, reasons in sorted(report.per_node.items()):
            detail = ", ".join(
                f"{reason}: {count}" for reason, count in sorted(reasons.items())
            )
            print(f"  blocked at {node}: {detail}")
        print(
            f"  {report.departures} departed, "
            f"{report.active_at_end} still active at end"
        )
    return 0


def run_net_reclaim(args: argparse.Namespace) -> int:
    """Live reprovisioning against static thresholds, three seeds."""
    from repro.experiments.fabric import run_fabric
    from repro.experiments.reclaim import run_reclaim_study
    from repro.experiments.spec import scenario_from_params
    from repro.obs import JsonlSink

    seeds = (args.seed, args.seed + 1, args.seed + 2)
    runner = default_runner(args.workers, args.cache_dir, args.telemetry_dir)
    study = run_reclaim_study(hops=args.hops, seeds=seeds, runner=runner)
    print(
        f"reclamation study: {args.hops}-hop tandem, "
        f"{study.sim_time:g} s per run, seeds {', '.join(map(str, seeds))}"
    )
    print()
    print(study.render())
    if args.trace_out is not None:
        # The study's first reclamation run, traced so the pool's accounting
        # can be audited offline: `repro check <trace-out>` applies RPR206.
        scenario = scenario_from_params(
            "network",
            {"hops": args.hops, "seed": seeds[0], "sim_time": study.sim_time,
             "reclamation": True},
        )
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        with JsonlSink(args.trace_out) as trace:
            run_fabric(scenario, sink=trace)
        print()
        print(f"# reclamation trace written to {args.trace_out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # `repro check` owns its argument surface (it is also
        # `python -m repro.check` and `repro-check`); delegate before parsing.
        from repro.check.cli import main as check_main

        return check_main(argv[1:])
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # A usage error (2) or --help (0); argparse has printed it.
        return stop.code
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        # Refused input found past parsing (a spec, a cache, a variable):
        # argparse's code and form, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
