"""Streaming aggregation: cache replay, byte-identical folds."""

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
    SweepAxis,
    SweepSpec,
    aggregate_sweep,
    default_aggregate_path,
    load_sweep,
    run_grid,
    run_sweep_worker,
    write_aggregate,
)
from repro.experiments.sweep.aggregate import metric_row
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

    def test_cache_replay_equals_serial_aggregate(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path / "queue")
        run_sweep_worker(spec, cache, "w1", heartbeat_timeout=30.0)
        # The worker's cache entries are the only per-cell record: the
        # aggregate rebuilt from them equals a serial run's, every time.
        via_cache = aggregate_sweep(spec, cache)
        serial = aggregate_sweep(spec, run_serial(spec, tmp_path / "serial"))
        dumps = lambda agg: json.dumps(agg, sort_keys=True)
        assert dumps(via_cache) == dumps(aggregate_sweep(spec, cache)) == dumps(serial)

    def test_cleared_cache_is_incomplete(self, tmp_path):
        spec = small_spec()
        cache = ResultCache(tmp_path)
        run_sweep_worker(spec, cache, "w1")
        assert cache.clear() == 4
        with pytest.raises(ConfigurationError, match="incomplete.*4 of 4 cells"):
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
        assert aggregate_sweep(grid, queue) == in_memory

    def test_in_memory_grid_equals_the_batch_and_worker_caches(self, tmp_path):
        spec = dataclasses.replace(
            load_sweep("examples/sweeps/ci_grid.json"),
            base={"sim_time": 0.3, "warmup": 0.05},
        )
        cache = ResultCache(tmp_path / "batch")
        in_memory = run_grid(spec, CampaignRunner(cache=cache))
        assert in_memory["cells"] == 12 and len(in_memory["groups"]) == 4
        assert aggregate_sweep(spec, cache) == in_memory
        queue = ResultCache(tmp_path / "queue")
        run_sweep_worker(spec, queue, "w1", heartbeat_timeout=30.0)
        assert aggregate_sweep(spec, queue) == in_memory
