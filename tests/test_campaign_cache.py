"""ResultCache: hit/miss behaviour, robustness, content addressing."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import ResultCache, ScenarioJob, execute_job
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import table1_flows
from repro.units import mbytes

FLOWS = table1_flows()


@pytest.fixture(scope="module")
def record_and_job():
    job = ScenarioJob.for_scenario(
        FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1), sim_time=0.5, warmup=0.1, seed=3
    )
    return execute_job(job), job


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestHitMiss:
    def test_empty_cache_misses(self, cache, record_and_job):
        _record, job = record_and_job
        assert cache.get(job.digest()) is None
        assert cache.misses == 1
        assert cache.hits == 0

    def test_round_trip_hit_equals_original(self, cache, record_and_job):
        record, job = record_and_job
        cache.put(record)
        fetched = cache.get(job.digest())
        assert fetched == record
        assert cache.hits == 1
        assert cache.stores == 1

    def test_contains(self, cache, record_and_job):
        record, job = record_and_job
        assert job.digest() not in cache
        cache.put(record)
        assert job.digest() in cache

    def test_stored_file_is_valid_json(self, cache, record_and_job):
        record, _job = record_and_job
        cache.put(record)
        path = cache.path(record.job_digest)
        raw = json.loads(path.read_text())
        assert raw["schema"] == "repro-campaign-v2"
        assert raw["job_digest"] == record.job_digest


class TestRobustness:
    def test_corrupt_entry_is_a_miss(self, cache, record_and_job):
        record, job = record_and_job
        cache.put(record)
        path = cache.path(record.job_digest)
        path.write_text("{ not json")
        assert cache.get(job.digest()) is None

    def test_schema_mismatch_is_a_miss(self, cache, record_and_job):
        record, job = record_and_job
        cache.put(record)
        path = cache.path(record.job_digest)
        raw = json.loads(path.read_text())
        raw["schema"] = "repro-campaign-v999"
        path.write_text(json.dumps(raw))
        assert cache.get(job.digest()) is None

    def test_churn_block_without_unknown_split_is_a_miss(self, cache):
        # Every campaign-v2 writer records the unattributed blocks; an
        # entry without them is unreadable, not a zero.
        record = execute_job(ScenarioJob(demo_tandem(hops=1, sim_time=0.5)))
        cache.put(record)
        path = cache.path(record.job_digest)
        raw = json.loads(path.read_text())
        del raw["churn"]["blocked_unknown"]
        path.write_text(json.dumps(raw))
        assert cache.get(record.job_digest) is None
        assert cache.misses == 1

    def test_renamed_entry_is_a_miss(self, cache, record_and_job):
        # Content addressing: the payload must match the file name.
        record, job = record_and_job
        cache.put(record)
        path = cache.path(record.job_digest)
        imposter = cache.path("0" * 64)
        path.rename(imposter)
        assert cache.get("0" * 64) is None

    def test_root_that_is_a_file_rejected(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("")
        with pytest.raises(ConfigurationError):
            ResultCache(target)


class TestMaintenance:
    def test_entries_and_size(self, cache, record_and_job):
        record, _job = record_and_job
        assert cache.entries() == []
        assert cache.size_bytes() == 0
        cache.put(record)
        assert len(cache.entries()) == 1
        assert cache.size_bytes() > 0

    def test_clear_removes_everything(self, cache, record_and_job):
        record, job = record_and_job
        cache.put(record)
        assert cache.clear() == 1
        assert cache.entries() == []
        assert cache.get(job.digest()) is None
