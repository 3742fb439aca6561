"""Command-line entry point: regenerate the paper's figures and tables.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro figure1             # run one figure (fast mode)
    python -m repro figure4 --full      # paper-faithful sizing
    python -m repro all --out results/  # everything, archived to files
    python -m repro all --workers 4 --cache-dir results/cache

    python -m repro campaign run --spec spec.json --workers 4
    python -m repro campaign status     # cache, entries, queue state
    python -m repro campaign clear-cache

    python -m repro campaign sweep run --spec sweep.json --cache-dir d
    python -m repro campaign sweep run --spec sweep.json --owner w2 --wait
    python -m repro campaign sweep status --spec sweep.json --cache-dir d
    python -m repro campaign sweep aggregate --spec sweep.json --out agg.json

    python -m repro obs trace --spec spec.json --trace-out trace.jsonl
    python -m repro obs trace --input trace.jsonl --flow 3 --type drop
    python -m repro obs trace --input net.jsonl --node n0->n1 --kind drop
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
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from repro.experiments.campaign import CampaignRunner, ResultCache
from repro.experiments.campaign.cache import DEFAULT_CACHE_DIR
from repro.experiments.campaign.job import CAMPAIGN_SCHEMA
from repro.experiments.figures import ALL_FIGURES, FIGURES
from repro.experiments.report import format_figure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce figures from 'Scalable QoS Provision Through "
            "Buffer Management' (SIGCOMM 1998)."
        ),
    )
    parser.add_argument(
        "target",
        help=(
            "figure to run (figure1..figure13), 'all', 'list', 'run' "
            "with --spec for declarative scenarios, 'campaign' with an "
            "action (run/status/clear-cache), 'obs' with an action "
            "(trace/report/timeline/monitor), or 'net' with an action "
            "(demo/reclaim)"
        ),
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="campaign action (run, status, clear-cache, sweep), obs action "
        "(trace, report, timeline, monitor), or net action (demo, reclaim)",
    )
    parser.add_argument(
        "subaction",
        nargs="?",
        default=None,
        help="sweep verb for 'campaign sweep' (run, status, aggregate)",
    )
    parser.add_argument(
        "--spec",
        type=pathlib.Path,
        default=None,
        help="JSON scenario spec file (used with 'run' and 'campaign run') "
        "or sweep spec file ('campaign sweep ...')",
    )
    parser.add_argument(
        "--owner",
        default=None,
        help="worker id for 'campaign sweep run' claims and shards "
        "(default: <hostname>-<pid>; must be unique per worker)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        help="seconds after which a silent claim counts as orphaned and "
        "is reaped ('campaign sweep run/status', 'campaign status'; "
        "default 60)",
    )
    parser.add_argument(
        "--wait",
        action="store_true",
        help="'campaign sweep run': keep polling until every cell is "
        "complete instead of exiting when only peer-claimed cells remain",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-faithful sweep sizing (slow); default is fast mode",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to archive rendered figures into; for 'campaign "
        "sweep aggregate', the aggregate file path (default: "
        "<cache>/aggregates/<sweep-digest>.json)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for campaign execution (default: serial, "
        "or the REPRO_WORKERS environment variable)",
    )
    parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help="content-addressed result cache directory (default: no cache "
        "for figures, results/cache for campaign actions; REPRO_CACHE "
        "also enables it)",
    )
    parser.add_argument(
        "--telemetry-dir",
        type=pathlib.Path,
        default=None,
        help="run-telemetry directory (default: results/telemetry for "
        "'campaign run' and 'obs report'; REPRO_TELEMETRY also enables it)",
    )
    parser.add_argument(
        "--input",
        type=pathlib.Path,
        default=None,
        help="existing JSONL trace to read ('obs trace')",
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        help="where 'obs trace --spec' writes the JSONL event stream "
        "(default: results/trace.jsonl); for 'net reclaim', write one "
        "traced reclamation run here for offline RPR206 auditing",
    )
    parser.add_argument(
        "--flow",
        type=int,
        action="append",
        default=None,
        help="restrict 'obs trace' output to this flow id (repeatable)",
    )
    parser.add_argument(
        "--type",
        action="append",
        default=None,
        dest="event_type",
        help="restrict 'obs trace' output to this event kind, e.g. "
        "enqueue, drop, depart (repeatable)",
    )
    parser.add_argument(
        "--kind",
        action="append",
        default=None,
        dest="event_type",
        help="alias for --type (merged with it when both are given)",
    )
    parser.add_argument(
        "--node",
        action="append",
        default=None,
        help="restrict 'obs trace' output to events from this node label, "
        "e.g. n0->n1 (repeatable; '' selects single-port events)",
    )
    parser.add_argument(
        "--hops",
        type=int,
        default=3,
        help="tandem length for 'net demo' / 'net reclaim' / "
        "'obs timeline' / 'obs monitor' (default 3)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed for 'net demo' and the obs demo runs; first of "
        "three seeds for 'net reclaim' (default 0)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=None,
        help="sampling/sweep cadence in simulated seconds for "
        "'obs timeline' / 'obs monitor' (default 0.05)",
    )
    parser.add_argument(
        "--timeline-out",
        type=pathlib.Path,
        default=None,
        help="write the sampled timeline as JSONL (repro-timeline-v1) "
        "for 'obs timeline' / 'obs monitor'",
    )
    parser.add_argument(
        "--undersized",
        action="store_true",
        help="run the deliberately undersized tandem in 'obs monitor' "
        "(provokes conformant-drop violations)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="machine-readable JSON output for 'obs timeline' / "
        "'obs monitor'",
    )
    parser.add_argument(
        "--no-churn",
        action="store_true",
        help="disable the dynamic-flow population in 'net demo'",
    )
    parser.add_argument(
        "--since",
        type=float,
        default=None,
        help="drop trace events before this simulation time",
    )
    parser.add_argument(
        "--until",
        type=float,
        default=None,
        help="drop trace events after this simulation time",
    )
    return parser


def _build_runner(args: argparse.Namespace) -> CampaignRunner | None:
    """The runner requested by CLI flags, or None for env defaults."""
    if args.workers is None and args.cache_dir is None:
        return None
    cache = None if args.cache_dir is None else ResultCache(args.cache_dir)
    return CampaignRunner(workers=args.workers or 1, cache=cache)


def run_target(
    name: str,
    fast: bool,
    out: pathlib.Path | None,
    runner: CampaignRunner | None = None,
) -> None:
    figure = ALL_FIGURES[name](fast=fast, runner=runner)
    text = format_figure(figure)
    print(text)
    _print_campaign_stats(runner)
    print()
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text + "\n")


def _print_campaign_stats(runner: CampaignRunner | None) -> None:
    if runner is not None and runner.last_stats is not None:
        stats = runner.last_stats
        print(
            f"[campaign: {stats.submitted} jobs, {stats.unique} unique, "
            f"{stats.cache_hits} cached, {stats.executed} executed]"
        )


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


def run_spec_file(path: pathlib.Path, runner: CampaignRunner | None = None) -> None:
    from repro.experiments.report import format_table
    from repro.experiments.spec import load_specs, run_spec

    for spec in load_specs(path):
        results = run_spec(spec, runner=runner)
        rows = [[label, str(value)] for label, value in results.items()]
        print(f"{spec.name} [{_describe(spec.scenario)}]")
        print(format_table(["metric", "mean ± 95% CI"], rows))
        _print_campaign_stats(runner)
        print()


def _campaign_cache(args: argparse.Namespace) -> ResultCache:
    return ResultCache(args.cache_dir if args.cache_dir is not None else DEFAULT_CACHE_DIR)


def _telemetry_dir(args: argparse.Namespace) -> pathlib.Path:
    from repro.obs.telemetry import DEFAULT_TELEMETRY_DIR

    return args.telemetry_dir if args.telemetry_dir is not None else DEFAULT_TELEMETRY_DIR


def _heartbeat_timeout(args: argparse.Namespace) -> float:
    from repro.experiments.sweep import DEFAULT_HEARTBEAT_TIMEOUT

    if args.heartbeat_timeout is None:
        return DEFAULT_HEARTBEAT_TIMEOUT
    return args.heartbeat_timeout


def run_campaign_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import (
        aggregate_sweep,
        default_aggregate_path,
        load_sweep,
        run_sweep_worker,
        sweep_status,
        write_aggregate,
    )

    if args.subaction not in ("run", "status", "aggregate"):
        print(
            f"unknown sweep verb {args.subaction!r}; use run, status, "
            "or aggregate",
            file=sys.stderr,
        )
        return 2
    if args.spec is None:
        print(
            f"'campaign sweep {args.subaction}' requires --spec <sweep.json>",
            file=sys.stderr,
        )
        return 2
    spec = load_sweep(args.spec)
    cache = _campaign_cache(args)
    timeout = _heartbeat_timeout(args)

    if args.subaction == "run":
        summary = run_sweep_worker(
            spec,
            cache,
            owner=args.owner,
            heartbeat_timeout=timeout,
            wait=args.wait,
            preflight=True,
            telemetry_dir=_telemetry_dir(args),
        )
        status = sweep_status(spec, cache, heartbeat_timeout=timeout)
        print(f"sweep           : {spec.name} ({spec.digest()[:16]})")
        print(f"worker          : {summary.owner}")
        print(f"executed        : {summary.executed}")
        print(f"reaped claims   : {summary.reaped}")
        print(f"passes          : {summary.passes}")
        print(f"cells           : {status.cells}")
        print(f"completed       : {status.completed}")
        print(f"outstanding     : {summary.outstanding}")
        return 0 if status.complete else 1
    if args.subaction == "status":
        status = sweep_status(spec, cache, heartbeat_timeout=timeout)
        print(f"sweep           : {spec.name} ({spec.digest()[:16]})")
        print(f"cache directory : {cache.root}")
        print(f"cells           : {status.cells}")
        print(f"completed       : {status.completed}")
        print(f"claimed         : {status.claimed}")
        print(f"orphaned claims : {status.orphaned}")
        print(f"pending         : {status.pending}")
        return 0 if status.complete else 1
    aggregate = aggregate_sweep(spec, cache)
    out = (
        args.out
        if args.out is not None
        else default_aggregate_path(cache.root, spec)
    )
    path = write_aggregate(aggregate, out)
    print(f"sweep           : {spec.name} ({spec.digest()[:16]})")
    print(f"cells           : {aggregate['cells']}")
    print(f"groups          : {len(aggregate['groups'])}")
    print(f"aggregate       : {path}")
    return 0


def run_campaign(args: argparse.Namespace) -> int:
    from repro import units

    if args.action == "sweep":
        return run_campaign_sweep(args)
    if args.action == "run":
        if args.spec is None:
            print("'campaign run' requires --spec <file.json>", file=sys.stderr)
            return 2
        runner = CampaignRunner(
            workers=args.workers or 1,
            cache=_campaign_cache(args),
            telemetry_dir=_telemetry_dir(args),
            preflight=True,
        )
        run_spec_file(args.spec, runner=runner)
        return 0
    if args.action == "status":
        from repro.experiments.sweep import scan_queue

        cache = _campaign_cache(args)
        entries = cache.entries()
        stats = cache.persisted_stats()
        queue = scan_queue(cache.root, _heartbeat_timeout(args))
        print(f"cache directory : {cache.root}")
        print(f"schema tag      : {CAMPAIGN_SCHEMA}")
        print(f"entries         : {len(entries)}")
        print(f"size            : {units.to_mbytes(cache.size_bytes()):.3f} MB")
        print(f"cached bytes    : {cache.size_bytes()}")
        print(f"claimed         : {queue.claimed}")
        print(f"orphaned claims : {queue.orphaned}")
        print(f"lifetime hits   : {stats['hits']}")
        print(f"lifetime misses : {stats['misses']}")
        print(f"lifetime stores : {stats['stores']}")
        return 0
    if args.action == "clear-cache":
        cache = _campaign_cache(args)
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    print(
        f"unknown campaign action {args.action!r}; use run, status, "
        "clear-cache, or sweep",
        file=sys.stderr,
    )
    return 2


def _trace_spec_scenario(spec_path: pathlib.Path, out: pathlib.Path) -> None:
    """Run the first job of a spec with a JSONL sink attached."""
    from repro.experiments.fabric import run_fabric
    from repro.experiments.spec import load_specs
    from repro.obs import JsonlSink

    scenario = load_specs(spec_path)[0].jobs()[0].scenario
    out.parent.mkdir(parents=True, exist_ok=True)
    with JsonlSink(out) as sink:
        run_fabric(scenario, sink=sink)


def run_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import event_to_dict, filter_events, read_events
    from repro.obs.telemetry import CampaignReport, read_telemetry_dir

    if args.action == "trace":
        if (args.input is None) == (args.spec is None):
            print(
                "'obs trace' needs exactly one of --input <trace.jsonl> "
                "or --spec <file.json>",
                file=sys.stderr,
            )
            return 2
        if args.input is not None:
            trace_path = args.input
        else:
            trace_path = (
                args.trace_out
                if args.trace_out is not None
                else pathlib.Path("results") / "trace.jsonl"
            )
            _trace_spec_scenario(args.spec, trace_path)
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
    if args.action == "report":
        directory = _telemetry_dir(args)
        entries = read_telemetry_dir(directory)
        print(f"telemetry dir   : {directory}")
        if not entries:
            print("no telemetry found; run a campaign first")
            return 0
        print(CampaignReport.from_telemetry(entries).render())
        return 0
    if args.action == "timeline":
        return run_obs_timeline(args)
    if args.action == "monitor":
        return run_obs_monitor(args)
    print(
        f"unknown obs action {args.action!r}; use trace, report, "
        "timeline, or monitor",
        file=sys.stderr,
    )
    return 2


def _obs_demo_interval(args: argparse.Namespace) -> float:
    from repro.obs.timeline import DEFAULT_INTERVAL

    return DEFAULT_INTERVAL if args.interval is None else args.interval


def _write_timeline_out(args: argparse.Namespace, timeline) -> None:
    if args.timeline_out is None:
        return
    args.timeline_out.parent.mkdir(parents=True, exist_ok=True)
    timeline.write_jsonl(args.timeline_out)
    print(f"# timeline written to {args.timeline_out}", file=sys.stderr)


def run_obs_timeline(args: argparse.Namespace) -> int:
    """Sample the reference tandem demo and render the sim-time series."""
    import json

    from repro.experiments.fabric import run_fabric
    from repro.experiments.fabric.demo import TARGET_FLOW_ID, demo_tandem
    from repro.obs.timeline import Timeline

    if args.hops < 1:
        print("'obs timeline' needs --hops >= 1", file=sys.stderr)
        return 2
    interval = _obs_demo_interval(args)
    if interval <= 0:
        print("'obs timeline' needs --interval > 0", file=sys.stderr)
        return 2
    timeline = Timeline(interval=interval, flows=(TARGET_FLOW_ID,))
    scenario = demo_tandem(
        hops=args.hops,
        seed=args.seed,
        churn=not args.no_churn,
        reclamation=not args.no_churn,
        delay_histograms=False,
    )
    result = run_fabric(scenario, timeline=timeline)
    _write_timeline_out(args, timeline)
    if args.as_json:
        print(json.dumps(timeline.summary().to_dict(), sort_keys=True))
        return 0
    print(
        f"timeline: {args.hops}-hop tandem, seed {args.seed}, "
        f"{scenario.sim_time:g} s simulated, {timeline.ticks} samples "
        f"every {interval:g} s, {result.events_processed} events"
    )
    print()
    print(timeline.render())
    return 0


def run_obs_monitor(args: argparse.Namespace) -> int:
    """Run a demo tandem under the live conformance monitor."""
    import json

    from repro.experiments.fabric import run_fabric
    from repro.experiments.fabric.demo import (
        TARGET_FLOW_ID,
        demo_tandem,
        undersized_tandem,
    )
    from repro.obs.monitor import ConformanceMonitor
    from repro.obs.timeline import Timeline

    if args.hops < 1:
        print("'obs monitor' needs --hops >= 1", file=sys.stderr)
        return 2
    interval = _obs_demo_interval(args)
    if interval <= 0:
        print("'obs monitor' needs --interval > 0", file=sys.stderr)
        return 2
    monitor = ConformanceMonitor(interval=interval)
    timeline = None
    if args.timeline_out is not None:
        timeline = Timeline(interval=interval, flows=(TARGET_FLOW_ID,))
    if args.undersized:
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
    report = result.monitor_report
    if timeline is not None:
        _write_timeline_out(args, timeline)
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


def run_net(args: argparse.Namespace) -> int:
    from repro.experiments.fabric import run_fabric
    from repro.experiments.fabric.demo import TARGET_FLOW_ID, demo_tandem
    from repro.experiments.report import format_table
    from repro.units import to_millis

    if args.action == "reclaim":
        return run_net_reclaim(args)
    if args.action != "demo":
        print(
            f"unknown net action {args.action!r}; use demo or reclaim",
            file=sys.stderr,
        )
        return 2
    if args.hops < 1:
        print("'net demo' needs --hops >= 1", file=sys.stderr)
        return 2
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

    delivered = result.delivery_collector.flows.get(TARGET_FLOW_ID)
    print(f"end-to-end, target flow {TARGET_FLOW_ID} (conformant):")
    if delivered is None or delivered.departed_packets == 0:
        print("  no packets delivered in the measurement window")
    else:
        quantiles = "  ".join(
            f"p{q:g} {to_millis(result.end_to_end_percentile(TARGET_FLOW_ID, q)):.2f} ms"
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
    from repro.experiments.fabric import run_fabric
    from repro.experiments.fabric.demo import demo_tandem
    from repro.experiments.reclaim import run_reclaim_study
    from repro.obs import JsonlSink

    if args.hops < 1:
        print("'net reclaim' needs --hops >= 1", file=sys.stderr)
        return 2
    seeds = (args.seed, args.seed + 1, args.seed + 2)
    study = run_reclaim_study(hops=args.hops, seeds=seeds, runner=_build_runner(args))
    print(
        f"reclamation study: {args.hops}-hop tandem, "
        f"{study.sim_time:g} s per run, seeds {', '.join(map(str, seeds))}"
    )
    print()
    print(study.render())
    if args.trace_out is not None:
        # One traced reclamation run so the pool's accounting can be
        # audited offline: `repro check <trace-out>` applies RPR206.
        scenario = demo_tandem(
            hops=args.hops,
            seed=seeds[0],
            sim_time=study.sim_time,
            churn=True,
            reclamation=True,
            delay_histograms=False,
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
    args = build_parser().parse_args(argv)
    if args.target == "campaign":
        return run_campaign(args)
    if args.target == "obs":
        return run_obs(args)
    if args.target == "net":
        return run_net(args)
    if args.target == "run":
        if args.spec is None:
            print("the 'run' target requires --spec <file.json>", file=sys.stderr)
            return 2
        run_spec_file(args.spec, runner=_build_runner(args))
        return 0
    if args.target == "list":
        for name, figure in FIGURES.items():
            print(f"{name:10s} {figure.caption}")
        return 0
    if args.target == "all":
        runner = _build_runner(args)
        for name in ALL_FIGURES:
            run_target(name, fast=not args.full, out=args.out, runner=runner)
        return 0
    if args.target not in ALL_FIGURES:
        print(f"unknown target {args.target!r}; try 'list'", file=sys.stderr)
        return 2
    run_target(args.target, fast=not args.full, out=args.out, runner=_build_runner(args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
