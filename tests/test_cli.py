"""Command-line interface (python -m repro)."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro.experiments.figures as figures_module
from repro.__main__ import build_parser, main
from repro.experiments.config import SweepConfig
from repro.units import mbytes

TINY = SweepConfig(buffers=(mbytes(0.5),), seeds=(1,), sim_time=0.5)


@pytest.fixture(autouse=True)
def tiny_sweeps(monkeypatch):
    monkeypatch.setattr(figures_module, "sweep_config", lambda fast=None: TINY)


class TestParser:
    def test_target_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_flags(self):
        args = build_parser().parse_args(["figure1", "--full", "--out", "x"])
        assert args.target == "figure1"
        assert args.full
        assert args.out == pathlib.Path("x")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "figure13" in out

    def test_unknown_target(self, capsys):
        # "bench": `repro bench` was retired; no verb or shim stays behind.
        for target in ("figure99", "bench"):
            assert main([target]) == 2
            err = capsys.readouterr().err
            assert "invalid choice" in err and repr(target) in err
            assert "figure13" in err and "list" in err and "campaign" in err

    def test_run_single_figure(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "utilization" in out

    def test_out_directory_archives(self, tmp_path, capsys):
        assert main(["figure7", "--out", str(tmp_path)]) == 0
        archived = tmp_path / "figure7.txt"
        assert archived.exists()
        assert "Figure 7" in archived.read_text()

    def test_all_runs_every_figure(self, tmp_path, capsys):
        assert main(["all", "--out", str(tmp_path)]) == 0
        archived = sorted(path.name for path in tmp_path.glob("figure*.txt"))
        assert len(archived) == 13

    def test_figure_with_cache_dir_populates_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["figure1", "--cache-dir", str(cache_dir)]) == 0
        assert len(list(cache_dir.glob("*.json"))) > 0


class TestCampaignCommands:
    def test_status_on_empty_cache(self, tmp_path, capsys):
        assert main(["campaign", "status", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries         : 0" in out
        assert "schema tag      : repro-campaign-v2" in out

    def test_status_counts_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        main(["figure1", "--cache-dir", str(cache_dir)])
        assert main(["campaign", "status", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries         : 0" not in out

    def test_clear_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        main(["figure1", "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["campaign", "clear-cache", "--cache-dir", str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out
        assert list(cache_dir.glob("*.json")) == []

    def test_unknown_action_rejected(self, capsys):
        assert main(["campaign", "flush"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'flush'" in err
        assert "status" in err and "clear-cache" in err and "sweep" in err

    def test_run_requires_spec(self, capsys):
        assert main(["campaign", "run"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_run_executes_spec_with_cache(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"name": "tiny", "workload": "table1", "scheme": "FIFO_NONE",'
            ' "buffer_mb": 0.5, "sim_time": 0.5, "seeds": [1, 2],'
            ' "metrics": ["utilization"]}'
        )
        cache_dir = tmp_path / "c"
        argv = [
            "campaign", "run", "--spec", str(spec),
            "--cache-dir", str(cache_dir),
            "--telemetry-dir", str(tmp_path / "telemetry"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "tiny" in cold and "0 cached" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "2 cached" in warm and "0 executed" in warm

    def test_status_surfaces_lifetime_cache_stats(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"name": "tiny", "workload": "table1", "scheme": "FIFO_NONE",'
            ' "buffer_mb": 0.5, "sim_time": 0.5, "seeds": [1],'
            ' "metrics": ["utilization"]}'
        )
        cache_dir = tmp_path / "c"
        argv = [
            "campaign", "run", "--spec", str(spec),
            "--cache-dir", str(cache_dir),
            "--telemetry-dir", str(tmp_path / "telemetry"),
        ]
        main(argv)
        main(argv)
        capsys.readouterr()
        assert main(["campaign", "status", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "lifetime hits   : 1" in out
        assert "lifetime misses : 1" in out
        assert "lifetime stores : 1" in out
        assert "cached bytes    : " in out

    def test_status_reports_queue_state(self, tmp_path, capsys):
        from repro.experiments.sweep.queue import _claim

        cache_dir = tmp_path / "c"
        cache_dir.mkdir()
        _claim(str(cache_dir / f"{'a' * 64}.claim"), "a" * 64, "w1")
        assert main(["campaign", "status", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "claimed         : 1" in out
        assert "orphaned claims : 0" in out


SWEEP_SPEC = (
    '{"schema": "repro-sweep-spec-v1", "name": "cli", "kind": "scenario",'
    ' "axes": [{"name": "scheme", "values": ["FIFO_NONE"]},'
    ' {"name": "seed", "values": [1, 2]}],'
    ' "base": {"sim_time": 0.5, "warmup": 0.1},'
    ' "metrics": ["utilization", "loss"]}'
)


class TestSweepCommands:
    def write_spec(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(SWEEP_SPEC)
        return spec

    def argv(self, verb, spec, tmp_path, *extra):
        telemetry = ["--telemetry-dir", str(tmp_path / "telemetry")]
        return [
            "campaign", "sweep", verb, "--spec", str(spec),
            "--cache-dir", str(tmp_path / "cache"),
            *(telemetry if verb == "run" else []),
            *extra,
        ]

    def test_unknown_verb_rejected(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(self.argv("harvest", spec, tmp_path)) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'harvest'" in err
        assert "run" in err and "status" in err and "aggregate" in err

    def test_run_requires_spec(self, capsys):
        assert main(["campaign", "sweep", "run"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_status_before_any_work_is_incomplete(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(self.argv("status", spec, tmp_path)) == 1
        out = capsys.readouterr().out
        assert "cells           : 2" in out
        assert "pending         : 2" in out

    def test_run_status_aggregate_round_trip(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(self.argv("run", spec, tmp_path, "--owner", "w1")) == 0
        run_out = capsys.readouterr().out
        assert "executed        : 2" in run_out
        assert "worker          : w1" in run_out
        assert main(self.argv("status", spec, tmp_path)) == 0
        status_out = capsys.readouterr().out
        assert "completed       : 2" in status_out
        assert "pending         : 0" in status_out
        out_file = tmp_path / "agg.json"
        argv = self.argv("aggregate", spec, tmp_path, "--out", str(out_file))
        assert main(argv) == 0
        agg_out = capsys.readouterr().out
        assert "groups          : 1" in agg_out
        assert out_file.exists()

    def test_warm_rerun_executes_nothing(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        main(self.argv("run", spec, tmp_path))
        capsys.readouterr()
        assert main(self.argv("run", spec, tmp_path)) == 0
        out = capsys.readouterr().out
        assert "executed        : 0" in out

    def test_aggregate_before_completion_fails(self, tmp_path, capsys):
        from repro.errors import ConfigurationError

        spec = self.write_spec(tmp_path)
        with pytest.raises(ConfigurationError, match="incomplete"):
            main(self.argv("aggregate", spec, tmp_path))

    def test_failed_cells_show_in_status_and_clear_with_the_cache(
        self, tmp_path, capsys
    ):
        from repro.errors import SimulationError
        from repro.experiments.sweep.queue import _claim

        spec = tmp_path / "sweep.json"
        spec.write_text(SWEEP_SPEC.replace(
            '"values": ["FIFO_NONE"]}', '"values": ["FIFO_NONE"]}, '
            '{"name": "max_events", "values": [null, 50]}'
        ))
        with pytest.raises(SimulationError):
            main(self.argv("run", spec, tmp_path, "--wait"))
        capsys.readouterr()
        assert main(self.argv("status", spec, tmp_path)) == 1
        out = capsys.readouterr().out
        assert "completed       : 2" in out
        assert "failed          : 2" in out
        assert main(self.argv("run", spec, tmp_path)) == 1
        assert "executed        : 0" in capsys.readouterr().out

        cache_dir = tmp_path / "cache"
        assert main(["campaign", "status", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "claimed         : 0" in out and "failed claims   : 2" in out
        live = cache_dir / f"{'a' * 64}.claim"
        assert _claim(str(live), "a" * 64, "peer")
        assert main(["campaign", "clear-cache", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 2 cached result(s) and 2 failure claim(s)" in (
            capsys.readouterr().out
        )
        assert list(cache_dir.glob("*.claim")) == [live]

    def test_aggregate_default_path_is_digest_keyed(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        main(self.argv("run", spec, tmp_path))
        assert main(self.argv("aggregate", spec, tmp_path)) == 0
        out = capsys.readouterr().out
        aggregates = list((tmp_path / "cache" / "aggregates").glob("*.json"))
        assert len(aggregates) == 1
        assert str(aggregates[0]) in out


class TestObsCommands:
    SPEC = (
        '{"name": "tiny", "workload": "table1", "scheme": "FIFO_THRESHOLD",'
        ' "buffer_mb": 0.02, "sim_time": 0.5, "seeds": [3],'
        ' "metrics": ["utilization"]}'
    )

    def write_spec(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(self.SPEC)
        return spec

    def test_trace_needs_exactly_one_source(self, capsys, tmp_path):
        assert main(["obs", "trace"]) == 2
        assert "--input" in capsys.readouterr().err
        spec = self.write_spec(tmp_path)
        argv = [
            "obs", "trace", "--spec", str(spec),
            "--input", str(tmp_path / "t.jsonl"),
        ]
        assert main(argv) == 2

    def test_trace_from_spec_writes_and_prints(self, tmp_path, capsys):
        import json

        spec = self.write_spec(tmp_path)
        out_path = tmp_path / "trace.jsonl"
        argv = ["obs", "trace", "--spec", str(spec), "--trace-out", str(out_path)]
        assert main(argv) == 0
        assert out_path.is_file()
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "enqueue" in kinds

    def test_trace_from_network_spec_labels_each_hop(self, tmp_path, capsys):
        import json

        spec = tmp_path / "net.json"
        spec.write_text(
            '{"name": "tiny-net", "network": "tandem", "hops": 2,'
            ' "sim_time": 0.5, "seeds": [3]}'
        )
        out_path = tmp_path / "trace.jsonl"
        argv = ["obs", "trace", "--spec", str(spec), "--trace-out", str(out_path)]
        assert main(argv) == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert {e["node"] for e in events if e["kind"] == "depart"} == {
            "n0->n1",
            "n1->n2",
        }

    def test_trace_filters_by_flow_and_type(self, tmp_path, capsys):
        import json

        spec = self.write_spec(tmp_path)
        out_path = tmp_path / "trace.jsonl"
        main(["obs", "trace", "--spec", str(spec), "--trace-out", str(out_path)])
        capsys.readouterr()
        argv = [
            "obs", "trace", "--input", str(out_path),
            "--flow", "0", "--type", "drop",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines, "tiny buffer must produce drops for flow 0"
        for line in lines:
            event = json.loads(line)
            assert event["kind"] == "drop"
            assert event["flow_id"] == 0

    def test_trace_time_window(self, tmp_path, capsys):
        import json

        spec = self.write_spec(tmp_path)
        out_path = tmp_path / "trace.jsonl"
        main(["obs", "trace", "--spec", str(spec), "--trace-out", str(out_path)])
        capsys.readouterr()
        argv = [
            "obs", "trace", "--input", str(out_path),
            "--since", "0.1", "--until", "0.2",
        ]
        assert main(argv) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert 0.1 <= json.loads(line)["time"] <= 0.2

    def test_report_after_campaign_run(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        telemetry_dir = tmp_path / "telemetry"
        main([
            "campaign", "run", "--spec", str(spec),
            "--cache-dir", str(tmp_path / "c"),
            "--telemetry-dir", str(telemetry_dir),
        ])
        capsys.readouterr()
        assert main(["obs", "report", "--telemetry-dir", str(telemetry_dir)]) == 0
        out = capsys.readouterr().out
        assert "jobs            : 1" in out
        assert "wall time p50" in out

    def test_report_on_empty_dir(self, tmp_path, capsys):
        argv = ["obs", "report", "--telemetry-dir", str(tmp_path / "nope")]
        assert main(argv) == 0
        assert "no telemetry found" in capsys.readouterr().out

    def test_unknown_action_rejected(self, capsys):
        assert main(["obs", "flush"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'flush'" in err
        assert "trace" in err and "report" in err
        assert "timeline" in err and "monitor" in err

    def fabric_trace(self, tmp_path):
        """A short multi-hop trace with per-node event labels."""
        from repro.experiments.fabric import run_fabric
        from repro.experiments.fabric.demo import demo_tandem
        from repro.obs import JsonlSink

        path = tmp_path / "net-trace.jsonl"
        scenario = demo_tandem(
            hops=2, seed=0, sim_time=1.0, churn=False, delay_histograms=False
        )
        with JsonlSink(path) as sink:
            run_fabric(scenario, sink=sink)
        return path

    def test_trace_filters_by_node(self, tmp_path, capsys):
        import json

        trace = self.fabric_trace(tmp_path)
        argv = ["obs", "trace", "--input", str(trace), "--node", "n0->n1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines, "first hop must carry traffic"
        assert {json.loads(line)["node"] for line in lines} == {"n0->n1"}

    def test_trace_kind_merges_with_type(self, tmp_path, capsys):
        import json

        trace = self.fabric_trace(tmp_path)
        argv = [
            "obs", "trace", "--input", str(trace),
            "--type", "enqueue", "--type", "depart",
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert kinds == {"enqueue", "depart"}


class TestObsTimelineCommands:
    def test_timeline_renders_series(self, capsys):
        argv = ["obs", "timeline", "--hops", "1", "--no-churn", "--interval", "0.5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # One hop, no churn: the single-port fast path, unlabelled series.
        assert "timeline: 1-hop tandem" in out
        assert "occupancy" in out
        assert "backlog_packets" in out

    def test_timeline_json_summary(self, capsys):
        import json

        from repro.obs.timeline import TIMELINE_SCHEMA

        argv = [
            "obs", "timeline", "--hops", "1", "--no-churn",
            "--interval", "0.5", "--json",
        ]
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == TIMELINE_SCHEMA
        assert summary["ticks"] > 0
        assert "occupancy" in summary["series"]

    def test_timeline_rejects_bad_arguments(self, capsys):
        assert main(["obs", "timeline", "--hops", "0"]) == 2
        assert main(["obs", "timeline", "--interval", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("verb", ["timeline", "monitor"])
    def test_infinite_interval_is_a_usage_error(self, verb, capsys):
        # An infinite cadence would sample and sweep nothing.
        assert main(["obs", verb, "--hops", "1", "--interval", "inf"]) == 2
        assert "expected a positive float" in capsys.readouterr().err

    def test_monitor_conformant_run_exits_zero(self, tmp_path, capsys):
        out_path = tmp_path / "timeline.jsonl"
        argv = [
            "obs", "monitor", "--hops", "1", "--no-churn",
            "--timeline-out", str(out_path),
        ]
        assert main(argv) == 0
        assert "conformance: OK" in capsys.readouterr().out
        import json

        header, *samples = out_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(header)["schema"] == "repro-timeline-v1"
        assert samples

    def test_monitor_undersized_run_exits_one(self, capsys):
        import json

        argv = ["obs", "monitor", "--hops", "1", "--undersized", "--json"]
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(
            v["check"] == "conformant-drop" for v in report["violations"]
        )


class TestNetCommands:
    def test_demo_attributes_churn_blocking(self, capsys):
        assert main(["net", "demo", "--hops", "1"]) == 0
        out = capsys.readouterr().out
        assert "buffer-limited" in out
        assert "unattributed" in out


SPEC = (
    '{"name": "tiny", "workload": "table1", "scheme": "FIFO_NONE",'
    ' "buffer_mb": 0.5, "sim_time": 0.5, "seeds": [1],'
    ' "metrics": ["utilization"]}'
)


class TestOptionResolution:
    """Each run option resolves per field: flag, then variable, then default."""

    def test_cache_variable_reaches_run(self, tmp_path, monkeypatch, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(SPEC)
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c"))
        assert main(["run", "--spec", str(spec)]) == 0
        assert len(list((tmp_path / "c").glob("*.json"))) > 0

    def test_cache_variable_survives_workers_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c"))
        assert main(["figure1", "--workers", "1"]) == 0
        assert len(list((tmp_path / "c").glob("*.json"))) > 0

    def test_figure_writes_telemetry(self, tmp_path, capsys):
        from repro.obs.telemetry import read_telemetry_dir

        telemetry = tmp_path / "t"
        assert main(["figure1", "--telemetry-dir", str(telemetry)]) == 0
        assert read_telemetry_dir(telemetry)

    @pytest.mark.parametrize("value", ["four", "0"])
    def test_malformed_workers_variable_fails(self, value):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "figure1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src), "REPRO_WORKERS": value},
        )
        assert result.returncode != 0
        assert f"REPRO_WORKERS: expected a positive int, got {value!r}" in result.stderr


class TestVerbsRefuseForeignOptions:
    """A verb accepts only the options it reads; the rest are usage errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure1", "--undersized"],
            ["net", "demo", "--owner", "x"],
            ["campaign", "status", "--flow", "3"],
            ["figure1", "--workers", "0"],
            ["campaign", "sweep", "run", "--spec", "s.json", "--heartbeat-timeout", "0"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_two_with_usage(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: python -m repro")
        assert "error: " in err
