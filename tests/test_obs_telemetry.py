"""Run telemetry: per-job accounting through the campaign pipeline."""

import dataclasses
import json
import os
import threading

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignRunner, ResultCache, ScenarioJob
from repro.experiments.campaign.cache import write_telemetry
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import table1_flows
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    CampaignReport,
    JobTelemetry,
    batch_digest,
    read_telemetry_dir,
)


def make_entry(digest="d0", wall=0.5, events=100, hit=False, worker=1):
    return JobTelemetry(
        job_digest=digest,
        wall_time=wall,
        events=events,
        cache_hit=hit,
        worker=worker,
    )


def make_jobs(n=2, sim_time=0.2):
    flows = table1_flows()[:4]
    return [
        ScenarioJob.for_scenario(
            flows, Scheme.FIFO_THRESHOLD, 20_000.0, seed=seed, sim_time=sim_time
        )
        for seed in range(1, n + 1)
    ]


class TestJobTelemetry:
    def test_round_trip(self):
        entry = make_entry()
        raw = entry.to_dict()
        assert raw["schema"] == TELEMETRY_SCHEMA
        assert JobTelemetry.from_dict(raw) == entry
        # Lines written while telemetry still named an event-queue
        # backend load too; the extra key is ignored.
        assert JobTelemetry.from_dict(dict(raw, equeue="heap")) == entry
        assert "equeue" not in raw

    def test_schema_mismatch_rejected(self):
        raw = make_entry().to_dict()
        raw["schema"] = "repro-telemetry-v999"
        with pytest.raises(ConfigurationError):
            JobTelemetry.from_dict(raw)


class TestCampaignReport:
    def test_aggregation(self):
        report = CampaignReport.from_telemetry(
            [
                make_entry("a", wall=1.0, events=10, hit=False, worker=1),
                make_entry("b", wall=2.0, events=20, hit=False, worker=2),
                make_entry("c", wall=0.001, events=30, hit=True, worker=1),
            ]
        )
        assert report.jobs == 3
        assert report.executed == 2
        assert report.cache_hits == 1
        assert report.hit_fraction == pytest.approx(1 / 3)
        assert report.total_events == 60
        assert report.total_wall_time == pytest.approx(3.001)
        assert report.workers == [1, 2]

    def test_wall_histogram_merges_workers(self):
        report = CampaignReport.from_telemetry(
            [
                make_entry("a", wall=0.1, worker=1),
                make_entry("b", wall=1.0, worker=2),
                make_entry("c", wall=10.0, worker=3),
            ]
        )
        raw = report.to_dict()
        assert raw["workers"] == [1, 2, 3]
        assert raw["wall_time_max"] == 10.0
        # The median falls in the middle worker's bin, the 95th in the last's.
        assert 0.1 < raw["wall_time_p50"] <= 1.0 < raw["wall_time_p95"] <= 10.0

    def test_render_and_to_dict(self):
        report = CampaignReport.from_telemetry([make_entry()])
        text = report.render()
        assert "jobs" in text and "wall time p95" in text
        raw = report.to_dict()
        assert raw["jobs"] == 1
        assert "wall_time_p50" in raw

    def test_empty_report(self):
        report = CampaignReport()
        assert report.hit_fraction == 0.0
        assert report.to_dict()["wall_time_max"] == 0.0
        report.render()  # must not raise on empty


class TestPinnedReport:
    """Three workers, hits and misses, wall times in the underflow, regular
    and overflow bins: the summary depends on bin counts and the maximum
    only, so it is pinned whole."""

    ROWS = [
        # digest, wall, events, hit, worker, cancelled_pending, compactions
        ("a", 5e-05, 100, False, 303, 1, 0),
        ("b", 0.0, 40, True, 101, 0, 0),
        ("c", 0.003, 250, False, 202, 0, 1),
        ("d", 0.25, 1000, False, 101, 2, 0),
        ("e", 1.7, 30, True, 303, 0, 0),
        ("f", 42.0, 5000, False, 202, 3, 2),
        ("g", 20000.0, 7, False, 101, 0, 0),
        ("h", 0.25, 60, True, 202, 0, 0),
    ]

    def report(self):
        return CampaignReport.from_telemetry(
            JobTelemetry(
                job_digest=digest,
                wall_time=wall,
                events=events,
                cache_hit=hit,
                worker=worker,
                cancelled_pending=cancelled,
                compactions=compactions,
            )
            for digest, wall, events, hit, worker, cancelled, compactions in self.ROWS
        )

    def test_to_dict(self):
        assert self.report().to_dict() == {
            "jobs": 8,
            "cache_hits": 3,
            "executed": 5,
            "hit_fraction": 0.375,
            "total_wall_time": 20044.20305,
            "total_events": 6487,
            "workers": [101, 202, 303],
            "wall_time_p50": 0.1995262314968882,
            "wall_time_p95": 20000.0,
            "wall_time_max": 20000.0,
            "engine": {
                "jobs": 5,
                "events": 6357,
                "wall_time": 20042.25305,
                "cancelled_pending": 6,
                "compactions": 3,
            },
        }

    def test_render(self):
        assert self.report().render() == (
            "jobs            : 8\n"
            "executed        : 5\n"
            "cache hits      : 3 (37.5%)\n"
            "workers         : 3\n"
            "events simulated: 6487\n"
            "wall time total : 20044.203 s\n"
            "wall time p50   : 0.1995 s\n"
            "wall time p95   : 20000.0000 s\n"
            "wall time max   : 20000.0000 s\n"
            "engine          : 5 job(s), 6357 events in 20042.253 s, "
            "3 compaction(s), 6 cancelled pending"
        )

class TestEngineAccounting:
    def test_engine_totals_sum_over_executed_jobs(self):
        report = CampaignReport.from_telemetry(
            [
                make_entry("a", wall=1.0, events=10),
                make_entry("b", wall=2.0, events=20),
                # A pre-removal line that still names its backend counts
                # like any other executed job.
                JobTelemetry.from_dict(
                    dict(make_entry("c", wall=4.0, events=40).to_dict(), equeue="heap")
                ),
            ]
        )
        assert report.engine == {
            "jobs": 3,
            "events": 70,
            "wall_time": pytest.approx(7.0),
            "cancelled_pending": 0,
            "compactions": 0,
        }

    def test_cache_hits_excluded_from_engine_totals(self):
        # A cache hit runs no engine: its (replayed) event count and
        # lookup time must not pollute the engine accounting.
        report = CampaignReport.from_telemetry(
            [make_entry("a", events=100), make_entry("b", events=100, hit=True)]
        )
        assert report.total_events == 200
        assert report.engine["jobs"] == 1
        assert report.engine["events"] == 100

    def test_engine_counters_accumulate(self):
        entries = [
            JobTelemetry(
                job_digest=d,
                wall_time=0.1,
                events=5,
                cache_hit=False,
                worker=1,
                cancelled_pending=2,
                compactions=1,
            )
            for d in ("a", "b")
        ]
        engine = CampaignReport.from_telemetry(entries).engine
        assert engine["cancelled_pending"] == 4
        assert engine["compactions"] == 2

    def test_engine_in_render_and_to_dict(self):
        report = CampaignReport.from_telemetry([make_entry("a", events=7)])
        assert report.to_dict()["engine"]["jobs"] == 1
        engine_lines = [
            line for line in report.render().splitlines() if line.startswith("engine")
        ]
        assert len(engine_lines) == 1
        assert "1 job(s), 7 events" in engine_lines[0]

    def test_engine_returns_a_copy(self):
        report = CampaignReport.from_telemetry([make_entry("a")])
        report.engine["jobs"] = 999
        assert report.engine["jobs"] == 1


class TestTelemetryFiles:
    def test_write_then_read(self, tmp_path):
        entries = [make_entry("a"), make_entry("b")]
        path = write_telemetry(tmp_path, entries)
        assert path.name == f"campaign-{batch_digest(['a', 'b'])}.jsonl"
        assert read_telemetry_dir(tmp_path) == entries

    def test_rerun_overwrites_not_accumulates(self, tmp_path):
        entries = [make_entry("a")]
        write_telemetry(tmp_path, entries)
        write_telemetry(tmp_path, entries)
        assert len(read_telemetry_dir(tmp_path)) == 1

    def test_bad_lines_skipped(self, tmp_path):
        path = write_telemetry(tmp_path, [make_entry("a")])
        path.write_text(path.read_text() + "not json\n" + json.dumps({"schema": "x"}) + "\n")
        assert len(read_telemetry_dir(tmp_path)) == 1

    def test_non_object_lines_skipped(self, tmp_path):
        # Valid JSON that is not an object is as unreadable as not-JSON.
        path = write_telemetry(tmp_path, [make_entry("a")])
        path.write_text(path.read_text() + "[1, 2]\n7\nnull\n\"text\"\n")
        assert read_telemetry_dir(tmp_path) == [make_entry("a")]

    def test_missing_dir_is_empty(self, tmp_path):
        assert read_telemetry_dir(tmp_path / "nope") == []

    def test_two_threads_writing_one_batch_both_succeed(self, tmp_path, monkeypatch):
        """Both threads have written their scratch file before either moves
        it into place: with one scratch name per process the second
        ``os.replace`` found nothing to move."""
        entries = [make_entry("a"), make_entry("b")]
        barrier = threading.Barrier(2, timeout=10)
        replace = os.replace

        def interleaved(src, dst):
            barrier.wait()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        errors = []

        def write():
            try:
                write_telemetry(tmp_path / "telemetry", entries)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert read_telemetry_dir(tmp_path / "telemetry") == entries
        assert not list((tmp_path / "telemetry").glob("*.tmp.*"))


class TestRunnerIntegration:
    def test_executed_jobs_carry_telemetry(self):
        runner = CampaignRunner()
        jobs = make_jobs(2)
        records = runner.run(jobs)
        for job, record in zip(jobs, records):
            telemetry = record.telemetry
            assert telemetry is not None
            assert telemetry.job_digest == job.digest()
            assert telemetry.cache_hit is False
            assert telemetry.wall_time > 0
            assert telemetry.events == record.events_processed
        report = CampaignReport.from_telemetry([r.telemetry for r in records])
        engine = report.engine
        assert engine["jobs"] == 2
        assert engine["events"] == sum(r.events_processed for r in records)

    def test_cache_hits_marked(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = make_jobs(2)
        CampaignRunner(cache=cache).run(jobs)
        records = CampaignRunner(cache=cache).run(jobs)
        for record in records:
            assert record.telemetry is not None
            assert record.telemetry.cache_hit is True

    def test_last_report_aggregates_batch(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        records = CampaignRunner(cache=cache).run(make_jobs(2))
        report = CampaignReport.from_telemetry([r.telemetry for r in records])
        assert report.jobs == 2
        assert report.executed == 2
        rerun = CampaignRunner(cache=cache).run(make_jobs(2))
        assert CampaignReport.from_telemetry([r.telemetry for r in rerun]).cache_hits == 2

    def test_telemetry_written_to_dir(self, tmp_path):
        runner = CampaignRunner(telemetry_dir=tmp_path / "telemetry")
        jobs = make_jobs(2)
        runner.run(jobs)
        entries = read_telemetry_dir(tmp_path / "telemetry")
        assert sorted(entry.job_digest for entry in entries) == sorted(
            job.digest() for job in jobs
        )

    def test_telemetry_not_serialized(self, tmp_path):
        runner = CampaignRunner()
        record = runner.run(make_jobs(1))[0]
        assert record.telemetry is not None
        assert "telemetry" not in record.to_dict()
        # Equality ignores telemetry: a cache round-trip compares equal.
        stripped = dataclasses.replace(record, telemetry=None)
        assert stripped == record

    def test_parallel_run_records_worker_ids(self, tmp_path):
        runner = CampaignRunner(workers=2)
        records = runner.run(make_jobs(4, sim_time=0.3))
        workers = {record.telemetry.worker for record in records}
        assert len(workers) >= 1  # pool may reuse one worker on tiny jobs
        assert all(record.telemetry.wall_time > 0 for record in records)


class TestCachePersistedStats:
    def test_stats_accumulate_across_instances(self, tmp_path):
        root = tmp_path / "cache"
        jobs = make_jobs(1)
        cache = ResultCache(root)
        CampaignRunner(cache=cache).run(jobs)  # miss + store
        cache2 = ResultCache(root)
        CampaignRunner(cache=cache2).run(jobs)  # hit
        stats = ResultCache(root).persisted_stats()
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["hits"] == 1

    def test_persist_resets_in_memory_counters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.get("absent")
        cache.persist_stats()
        assert cache.misses == 0
        cache.persist_stats()
        assert ResultCache(tmp_path / "cache").persisted_stats()["misses"] == 1

    def test_stats_file_is_not_a_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.persist_stats()
        assert cache.stats_path.is_file()
        assert cache.entries() == []

    def test_clear_removes_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.get("absent")
        cache.persist_stats()
        cache.clear()
        assert not cache.stats_path.exists()
        assert cache.persisted_stats() == {"hits": 0, "misses": 0, "stores": 0}

    def test_corrupt_stats_file_tolerated(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.root.mkdir(parents=True)
        cache.stats_path.write_text("not json")
        assert cache.persisted_stats() == {"hits": 0, "misses": 0, "stores": 0}
