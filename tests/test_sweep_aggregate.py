"""Streaming aggregation: shards, torn lines, byte-identical folds."""

import dataclasses
import json
import os
import threading

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign.cache import ResultCache
from repro.experiments.campaign.runner import CampaignRunner, execute_job
from repro.experiments.spec import ScenarioSpec, run_spec
from repro.experiments.sweep import (
    AGGREGATE_SCHEMA,
    SHARD_SCHEMA,
    SweepAxis,
    SweepSpec,
    aggregate_sweep,
    default_aggregate_path,
    load_sweep,
    metric_row,
    read_shard_index,
    run_grid,
    run_sweep_worker,
    shard_dir,
    shard_path,
    write_aggregate,
)
from repro.experiments.sweep.aggregate import _append_shard_row
from repro.metrics.stats import MeanCI

FAST = {"sim_time": 0.5, "warmup": 0.1}


def small_spec(**overrides):
    kwargs = dict(
        name="agg",
        axes=(
            SweepAxis("scheme", ("FIFO_NONE", "FIFO_THRESHOLD")),
            SweepAxis("seed", (1, 2)),
        ),
        base=FAST,
        metrics=("utilization", "loss"),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def run_serial(spec, root):
    cache = ResultCache(root)
    for _params, job in spec.jobs():
        record = cache.get(job.digest())
        if record is None:
            cache.put(execute_job(job))
    return cache


class TestMetricRow:
    def test_scenario_row_uses_declared_metrics(self):
        spec = small_spec()
        params, job = next(iter(spec.jobs()))
        record = execute_job(job)
        row = metric_row(spec, job.scenario, record)
        assert set(row) == {"utilization", "loss"}
        assert all(isinstance(v, float) for v in row.values())

    def test_network_row_uses_fixed_extractors(self):
        spec = SweepSpec(
            name="net",
            kind="network",
            axes=(SweepAxis("seed", (1,)),),
            base={"hops": 1, "sim_time": 0.5, "delay_histograms": False},
            metrics=("delivered", "blocking", "events"),
        )
        params, job = next(iter(spec.jobs()))
        record = execute_job(job)
        row = metric_row(spec, job.scenario, record)
        assert set(row) == {"delivered", "blocking", "events"}
        assert row["events"] > 0


class TestShardIO:
    def test_append_then_read_round_trip(self, tmp_path):
        spec = small_spec()
        path = shard_path(tmp_path, spec.digest(), "w1")
        _append_shard_row(
            path, spec.digest(), "d" * 64, {"seed": 1}, {"utilization": 42.0}
        )
        assert path.parent == shard_dir(tmp_path)
        index = read_shard_index(tmp_path, spec.digest())
        assert index == {"d" * 64: {"utilization": 42.0}}
        line = json.loads(path.read_text().splitlines()[0])
        assert line["schema"] == SHARD_SCHEMA

    def test_owner_name_is_sanitized(self, tmp_path):
        path = shard_path(tmp_path, "a" * 64, "host/with:odd chars")
        assert "/" not in path.name and ":" not in path.name

    def test_torn_final_line_is_skipped(self, tmp_path):
        digest = small_spec().digest()
        path = shard_path(tmp_path, digest, "w1")
        _append_shard_row(path, digest, "a" * 64, {"seed": 1}, {"m": 1.0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-sweep-shard-v1", "dig')  # SIGKILL
        index = read_shard_index(tmp_path, digest)
        assert index == {"a" * 64: {"m": 1.0}}

    def test_foreign_sweeps_and_schemas_are_ignored(self, tmp_path):
        digest = small_spec().digest()
        _append_shard_row(
            shard_path(tmp_path, digest, "w1"), digest, "a" * 64, {}, {"m": 1.0}
        )
        # A row from a different sweep whose file-name prefix collides.
        path = shard_path(tmp_path, digest, "w2")
        foreign = {
            "schema": SHARD_SCHEMA,
            "sweep": "f" * 64,
            "digest": "b" * 64,
            "params": {},
            "metrics": {"m": 9.0},
        }
        alien = {"schema": "other-v1", "digest": "c" * 64, "metrics": {}}
        path.write_text(
            json.dumps(foreign) + "\n" + json.dumps(alien) + "\n"
        )
        index = read_shard_index(tmp_path, digest)
        assert set(index) == {"a" * 64}

    def test_duplicate_digests_collapse(self, tmp_path):
        digest = small_spec().digest()
        for owner in ("w1", "w2"):
            _append_shard_row(
                shard_path(tmp_path, digest, owner), digest, "a" * 64,
                {"seed": 1}, {"m": 2.5},
            )
        assert read_shard_index(tmp_path, digest) == {"a" * 64: {"m": 2.5}}

    def test_missing_shard_dir_is_empty_index(self, tmp_path):
        assert read_shard_index(tmp_path, "a" * 64) == {}


class TestAggregate:
    def test_incomplete_sweep_raises(self, tmp_path):
        spec = small_spec()
        with pytest.raises(ConfigurationError, match="incomplete"):
            aggregate_sweep(spec, ResultCache(tmp_path))

    def test_aggregate_shape_and_grouping(self, tmp_path):
        spec = small_spec()
        cache = run_serial(spec, tmp_path)
        aggregate = aggregate_sweep(spec, cache)
        assert aggregate["schema"] == AGGREGATE_SCHEMA
        assert aggregate["sweep_digest"] == spec.digest()
        assert aggregate["cells"] == 4
        assert len(aggregate["groups"]) == 2  # seed folded out
        for group in aggregate["groups"]:
            assert group["seeds"] == [1, 2]
            for metric in ("utilization", "loss"):
                cell = group["metrics"][metric]
                assert cell["n"] == 2
                assert cell["halfwidth"] >= 0.0

    def test_cache_replay_equals_shard_fed_aggregate(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "queue")
        run_sweep_worker(spec, cache, "w1", heartbeat_timeout=30.0)
        via_shards = aggregate_sweep(spec, cache)
        # Destroy the shards: aggregation must rebuild the identical
        # rows from the cached records alone (pure cache replay).
        for path in shard_dir(cache.root).glob("*.jsonl"):
            path.unlink()
        via_cache = aggregate_sweep(spec, cache)
        serial = aggregate_sweep(spec, run_serial(spec, tmp_path / "serial"))
        dumps = lambda agg: json.dumps(agg, sort_keys=True)
        assert dumps(via_shards) == dumps(via_cache) == dumps(serial)

    def test_shard_row_missing_metric_is_fatal(self, tmp_path):
        spec = small_spec()
        cache = run_serial(spec, tmp_path)
        [(params, job)] = list(spec.jobs())[:1]
        _append_shard_row(
            shard_path(cache.root, spec.digest(), "w1"), spec.digest(),
            job.digest(), params, {"loss": 0.0},
        )
        with pytest.raises(ConfigurationError, match="lacks metric"):
            aggregate_sweep(spec, cache)

    def test_write_aggregate_is_canonical_and_atomic(self, tmp_path):
        spec = small_spec()
        cache = run_serial(spec, tmp_path)
        aggregate = aggregate_sweep(spec, cache)
        out = default_aggregate_path(cache.root, spec)
        assert write_aggregate(aggregate, out) == out
        first = out.read_bytes()
        assert first.endswith(b"\n")
        write_aggregate(aggregate_sweep(spec, cache), out)
        assert out.read_bytes() == first
        assert not list(out.parent.glob("*.tmp.*"))

    def test_two_threads_writing_one_aggregate_both_succeed(self, tmp_path, monkeypatch):
        """Both threads have written their scratch file before either moves
        it into place: with one scratch name per process the second
        ``os.replace`` found nothing to move."""
        out = tmp_path / "aggregates" / "one.json"
        barrier = threading.Barrier(2, timeout=10)
        replace = os.replace

        def interleaved(src, dst):
            barrier.wait()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        errors = []

        def write(value):
            try:
                write_aggregate({"writer": value}, out)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(value,)) for value in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert json.loads(out.read_text(encoding="utf-8")) in ({"writer": 1}, {"writer": 2})
        assert not list(out.parent.glob("*.tmp.*"))

    def test_default_path_is_digest_keyed(self, tmp_path):
        spec = small_spec()
        path = default_aggregate_path(tmp_path, spec)
        assert path.name == f"{spec.digest()}.json"
        assert path.parent.name == "aggregates"


class TestDescribersAgree:
    """A spec entry, a sweep and its aggregate are one grid, folded once."""

    def test_spec_entry_is_the_single_group_of_its_grid(self):
        metrics = ("utilization", "loss:conformant", "throughput:6,8")
        point = {"scheme": "WFQ_SHARING", "buffer_mb": 0.5, "sim_time": 0.3}
        entry = ScenarioSpec.from_dict(
            {"name": "entry", "seeds": [1, 2], "metrics": list(metrics), **point}
        )
        grid = SweepSpec(
            name="grid", axes=(SweepAxis("seed", (1, 2)),), base=point, metrics=metrics
        )
        assert [job.digest() for job in entry.jobs()] == [
            job.digest() for _params, job in grid.jobs()
        ]
        [group] = run_grid(grid, CampaignRunner())["groups"]
        assert group["seeds"] == [1, 2]
        assert run_spec(entry) == {
            metric: MeanCI(**cell) for metric, cell in group["metrics"].items()
        }

    def test_conformant_metrics_read_the_cells_own_flows(self, tmp_path):
        # A tandem grid has no workload parameter: its cells' conformant
        # flows are their scenario's (the target flow), as an entry's are.
        metrics = ("loss:conformant", "throughput:conformant", "delivered")
        point = {"hops": 1, "sim_time": 0.5}
        entry = ScenarioSpec.from_dict(
            {"name": "entry", "network": "tandem", "seeds": [1, 2],
             "metrics": list(metrics), **point}
        )
        grid = SweepSpec(
            name="grid", kind="network", axes=(SweepAxis("seed", (1, 2)),),
            base=point, metrics=metrics,
        )
        assert [job.digest() for job in entry.jobs()] == [
            job.digest() for _params, job in grid.jobs()
        ]
        in_memory = run_grid(grid, CampaignRunner())
        [group] = in_memory["groups"]
        assert group["metrics"]["throughput:conformant"]["mean"] > 0.0
        assert run_spec(entry) == {
            metric: MeanCI(**cell) for metric, cell in group["metrics"].items()
        }
        queue = ResultCache(tmp_path)
        run_sweep_worker(grid, queue, "w1")
        assert aggregate_sweep(grid, queue) == in_memory  # shard rows
        for path in shard_dir(queue.root).glob("*.jsonl"):
            path.unlink()
        assert aggregate_sweep(grid, queue) == in_memory  # cached records

    def test_in_memory_grid_equals_the_shard_and_cache_routes(self, tmp_path):
        spec = dataclasses.replace(
            load_sweep("examples/sweeps/ci_grid.json"),
            base={"sim_time": 0.3, "warmup": 0.05},
        )
        cache = ResultCache(tmp_path / "batch")
        in_memory = run_grid(spec, CampaignRunner(cache=cache))
        assert in_memory["cells"] == 12 and len(in_memory["groups"]) == 4
        assert aggregate_sweep(spec, cache) == in_memory  # records, no shards
        queue = ResultCache(tmp_path / "queue")
        run_sweep_worker(spec, queue, "w1", heartbeat_timeout=30.0)
        assert aggregate_sweep(spec, queue) == in_memory  # shard rows
