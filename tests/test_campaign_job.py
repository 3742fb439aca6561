"""The campaign pipeline, once per scenario shape.

A job is a scenario and a record is its links, so every behaviour the
pipeline promises — digest stability and field sensitivity, JSON and
pickle round-trips, schema refusal, cache put/get, deduplication,
serial == parallel — is asserted by one suite over two shapes: the
paper's Table-1 port (the one-link case) and the three-hop reference
tandem with churn and live reclamation.  What only one shape can show
(the one-link measurement API; delivery counters and the churn report)
sits beside the shared tests, unparametrised by shape; the one-link
API is read both live (``run_fabric``) and stored (``execute_job``).
"""

import dataclasses
import inspect
import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    CAMPAIGN_SCHEMA,
    CampaignRunner,
    ResultCache,
    ScenarioJob,
    ScenarioRecord,
    execute_job,
)
from repro.experiments.fabric import NetworkScenario, run_fabric
from repro.experiments.fabric.demo import TARGET_FLOW_ID, demo_tandem
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import CASE1_GROUPS, table1_flows
from repro.metrics.records import DELAY_PERCENTILES
from repro.units import mbytes

FLOWS = table1_flows()

# A fully-pinned one-link job.  If its digest tests start failing, either
# a scenario field changed meaning (bump CAMPAIGN_SCHEMA!) or digesting
# became platform-dependent (a bug: the cache must be shareable).
PINNED_JOB = dict(
    flows=FLOWS,
    scheme=Scheme.FIFO_THRESHOLD,
    buffer_size=mbytes(1),
    sim_time=2.0,
    warmup=0.25,
    seed=7,
)

#: The schema tags this repo used to write; none of them loads any more.
RETIRED_SCHEMAS = ("repro-campaign-v0", "repro-campaign-v1", "repro-campaign-net-v3")


def make_job(**overrides):
    kwargs = dict(PINNED_JOB)
    kwargs.update(overrides)
    flows, scheme, buffer_size = (
        kwargs.pop(key) for key in ("flows", "scheme", "buffer_size")
    )
    return ScenarioJob.for_scenario(flows, scheme, buffer_size, **kwargs)


def tandem_job(seed=7, **overrides):
    options = dict(hops=3, sim_time=2.0, churn=True, reclamation=True)
    options.update(overrides)
    return ScenarioJob(demo_tandem(seed=seed, **options))


#: shape -> seed -> job, cheap enough to execute a handful of times.
SHAPES = {
    "one-link": lambda seed=7: make_job(sim_time=0.5, warmup=0.1, seed=seed),
    "tandem": tandem_job,
}


#: view -> how a job's measurements are read: live, from the fabric run,
#: or stored, as the record the campaign pipeline keeps.
VIEWS = {
    "live": lambda job: run_fabric(job.scenario),
    "stored": execute_job,
}


@pytest.fixture(params=list(SHAPES))
def shape(request):
    return SHAPES[request.param]


@pytest.fixture(scope="module", params=list(SHAPES))
def executed(request):
    """One executed job/record pair per shape, shared by the read-only tests."""
    job = SHAPES[request.param]()
    return job, execute_job(job)


def canonical(record):
    return json.dumps(record.to_dict(), sort_keys=True)


class TestDigest:
    def test_digest_is_stable_across_instances(self, shape):
        assert shape().digest() == shape().digest()

    def test_digest_is_hex_sha256(self, shape):
        digest = shape().digest()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

    def test_digest_covers_the_seed(self, shape):
        assert shape(seed=1).digest() != shape(seed=2).digest()

    def test_schema_tag_participates(self, shape):
        assert shape().to_dict()["schema"] == CAMPAIGN_SCHEMA == "repro-campaign-v2"

    def test_digest_is_computed_once_outside_the_fields(self, shape, monkeypatch):
        calls = []
        to_dict = ScenarioJob.to_dict
        monkeypatch.setattr(
            ScenarioJob, "to_dict", lambda self: calls.append(1) or to_dict(self)
        )
        job = shape()
        assert job.digest() == job.digest() == job.digest()
        assert len(calls) == 1
        # The memo is no field: equality, hashing and the serialized form
        # are those of a job that never digested …
        assert [f.name for f in dataclasses.fields(job)] == ["scenario"]
        assert job == shape() and hash(job) == hash(shape())
        assert to_dict(job) == to_dict(shape())
        # … and it crosses a process pool with the job.
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job and clone.digest() == job.digest()
        assert len(calls) == 1

    def test_list_and_tuple_flows_hash_equal(self):
        as_list = make_job(flows=list(FLOWS))
        as_tuple = make_job(flows=tuple(FLOWS))
        assert as_list == as_tuple
        assert as_list.digest() == as_tuple.digest()

    @pytest.mark.parametrize(
        "change",
        [
            {"scheme": Scheme.WFQ_THRESHOLD},
            {"buffer_size": mbytes(2)},
            {"link_rate": 7_000_000.0},
            {"sim_time": 3.0},
            {"warmup": 0.5},
            {"warmup": None},
            {"seed": 8},
            {"headroom": mbytes(1)},
            {"groups": CASE1_GROUPS},
            {"packet_size": 256.0},
            {"delay_histograms": True},
            {"max_events": 1_000_000},
            {"flows": FLOWS[:-1]},
        ],
    )
    def test_any_field_change_changes_digest(self, change):
        assert make_job(**change).digest() != make_job().digest()

    @pytest.mark.parametrize(
        "change", [{"churn": False}, {"reclamation": False}, {"hops": 2}]
    )
    def test_digest_covers_churn_and_topology(self, change):
        assert tandem_job(**change).digest() != tandem_job().digest()


class TestRoundTrips:
    def test_json_round_trip_preserves_job_and_digest(self, shape):
        job = shape()
        rebuilt = ScenarioJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert rebuilt == job
        assert rebuilt.digest() == job.digest()
        # Keys a later writer adds beside the known ones load and are
        # ignored; the digest is of the job, not of the file.
        raw = job.to_dict()
        stale = ScenarioJob.from_dict(
            dict(raw, scenario=dict(raw["scenario"], equeue="heap"), note="x")
        )
        assert stale == job
        assert stale.digest() == job.digest()

    def test_pickle_round_trip_preserves_job_and_digest(self, shape):
        job = shape()
        rebuilt = pickle.loads(pickle.dumps(job))
        assert rebuilt == job
        assert rebuilt.digest() == job.digest()

    @pytest.mark.parametrize("schema", RETIRED_SCHEMAS)
    def test_from_dict_rejects_wrong_schema(self, shape, schema):
        raw = shape().to_dict()
        raw["schema"] = schema
        with pytest.raises(ConfigurationError, match="schema"):
            ScenarioJob.from_dict(raw)

    def test_from_dict_refuses_a_flat_v1_job_dict(self):
        # What `ScenarioJob.to_dict` wrote before a job was a scenario.
        flat = {
            "schema": "repro-campaign-v1",
            "flows": [flow.to_dict() for flow in FLOWS],
            "scheme": "FIFO_THRESHOLD",
            "buffer_size": mbytes(1),
            "seed": 7,
        }
        with pytest.raises(ConfigurationError, match="repro-campaign-v1"):
            ScenarioJob.from_dict(flat)

    def test_from_dict_rejects_unknown_scheme(self):
        raw = make_job().to_dict()
        raw["scenario"]["nodes"][0]["scheme"] = "QUANTUM_FAIRNESS"
        with pytest.raises(ConfigurationError, match="FIFO_THRESHOLD"):
            ScenarioJob.from_dict(raw)

    def test_job_is_hashable(self, shape):
        assert len({shape(), shape(), shape(seed=9)}) == 2


class TestValidation:
    def test_empty_flows_rejected(self):
        with pytest.raises(ConfigurationError):
            make_job(flows=())

    def test_non_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            make_job(scheme="FIFO_THRESHOLD")

    @pytest.mark.parametrize("field,value", [
        ("buffer_size", 0.0),
        ("link_rate", -1.0),
        ("sim_time", 0.0),
        ("warmup", 2.0),   # == sim_time
        ("max_events", 0),
    ])
    def test_bad_numeric_field_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            make_job(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_invalid_seed_refused_when_described(self, seed):
        # Used to digest and pass pre-flight, then fail inside the run.
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            make_job(seed=seed)

    def test_for_scenario_rejects_unknown_kwargs(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            ScenarioJob.for_scenario(
                FLOWS, Scheme.FIFO_NONE, mbytes(1), sim_tiem=1.0
            )

    def test_for_scenario_matches_direct_construction(self):
        direct = ScenarioJob(
            NetworkScenario.single_node(
                FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1),
                sim_time=2.0, warmup=0.25, seed=7,
            )
        )
        assert direct == make_job()
        assert direct.digest() == make_job().digest()

    def test_for_scenario_accepts_exactly_run_scenarios_keywords(self):
        # Everything run_scenario takes that describes the run; what only
        # observes it (sink, timeline, monitor) is no job input, and is
        # exactly what run_fabric takes besides the scenario.
        observers = {"sink", "timeline", "monitor"}
        assert observers == {
            name
            for name, parameter in inspect.signature(run_fabric).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }
        parameters = inspect.signature(run_scenario).parameters
        defaults = {
            name: parameter.default
            for name, parameter in parameters.items()
            if name not in observers | {"flows", "scheme", "buffer_size"}
        }
        port = (FLOWS, Scheme.FIFO_NONE, mbytes(1))
        assert ScenarioJob.for_scenario(*port, **defaults) == ScenarioJob.for_scenario(*port)
        for observer in observers:
            with pytest.raises(ConfigurationError, match="unknown scenario"):
                ScenarioJob.for_scenario(*port, **{observer: None})


class TestExecuteJob:
    def test_returns_a_record_with_telemetry(self, executed):
        job, record = executed
        assert isinstance(record, ScenarioRecord)
        assert record.job_digest == job.digest()
        assert record.seed == job.scenario.seed
        assert set(record.links) == {link.label for link in job.scenario.links}
        assert record.telemetry is not None
        assert record.telemetry.cache_hit is False
        assert record.telemetry.events == record.events_processed > 0

    def test_record_round_trips(self, executed):
        _job, record = executed
        raw = json.loads(json.dumps(record.to_dict()))
        assert raw["schema"] == CAMPAIGN_SCHEMA
        assert ScenarioRecord.from_dict(raw) == record
        assert canonical(ScenarioRecord.from_dict(raw)) == canonical(record)
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and canonical(clone) == canonical(record)

    @pytest.mark.parametrize("schema", RETIRED_SCHEMAS)
    def test_record_from_dict_rejects_wrong_schema(self, executed, schema):
        _job, record = executed
        with pytest.raises(ConfigurationError, match="schema"):
            ScenarioRecord.from_dict(dict(record.to_dict(), schema=schema))

    @pytest.mark.parametrize("view", list(VIEWS))
    def test_one_link_record_answers_the_one_link_api(self, view):
        result = VIEWS[view](SHAPES["one-link"]())
        (link,) = result.links.values()
        assert result.sole_link is link
        assert result.flow_stats == link.flow_stats
        assert sorted(result.flow_stats) == [flow.flow_id for flow in FLOWS]
        assert result.thresholds == link.thresholds
        assert (result.link_rate, result.buffer_size) == (link.rate, mbytes(1))
        assert result.queue_rates is None and result.queue_buffers is None
        assert 0.0 < result.utilization() <= 1.0
        assert result.loss_fraction(range(6)) == 0.0
        # Nothing is counted a second time past the only link.
        assert result.churn is None
        if view == "live":
            assert result.delivery is None
        else:
            assert result.delivery_packets == {}
            assert result.blocking_probability() == 0.0

    def test_live_and_stored_one_link_views_are_equal(self):
        job = make_job(
            scheme=Scheme.HYBRID_SHARING, groups=CASE1_GROUPS, sim_time=0.5,
            warmup=0.1, delay_histograms=True,
        )
        live, stored = run_fabric(job.scenario), execute_job(job)
        assert len(live.queue_rates) == len(live.queue_buffers) == len(CASE1_GROUPS)
        for name in (
            "flow_stats", "thresholds", "queue_rates", "queue_buffers",
            "link_rate", "buffer_size", "duration",
        ):
            assert getattr(live, name) == getattr(stored, name), name
        # Bit for bit: both views sum the same counters in the same order.
        assert live.utilization() == stored.utilization()
        for flow_ids in (None, CASE1_GROUPS[0]):
            assert live.loss_fraction(flow_ids) == stored.loss_fraction(flow_ids)
            assert live.throughput(flow_ids) == stored.throughput(flow_ids)
        for flow_id in live.flow_stats:
            for q in DELAY_PERCENTILES:
                assert live.delay_percentile(flow_id, q) == (
                    stored.delay_percentile(flow_id, q)
                ), (flow_id, q)

    def test_silent_static_flow_still_has_its_entry(self):
        # A 0.05 s window is too short for some Table-1 sources to turn
        # on; the record accounts for every flow it was configured with.
        job = make_job(sim_time=0.05, warmup=0.0, delay_histograms=True)
        record = execute_job(job)
        silent = [i for i, fs in record.flow_stats.items() if fs.offered_packets == 0]
        assert silent and sorted(record.flow_stats) == sorted(record.delays)
        assert all(record.delays[i].count == 0 for i in silent)

    def test_tandem_record_carries_the_fabric_measurements(self):
        record = execute_job(tandem_job(delay_histograms=True))
        assert set(record.links) == {"n0->n1", "n1->n2", "n2->n3"}
        assert record.delivery_packets[TARGET_FLOW_ID] > 0
        assert record.delivery_bytes[TARGET_FLOW_ID] > 0.0
        assert record.churn is not None
        assert 0.0 <= record.blocking_probability() <= 1.0
        assert record.delay_percentile(TARGET_FLOW_ID, 50.0) > 0.0

    @pytest.mark.parametrize("view", list(VIEWS))
    def test_multi_link_record_refuses_one_link_measurements(self, view):
        result = VIEWS[view](tandem_job(sim_time=0.5))
        for read in (
            lambda: result.flow_stats,
            lambda: result.thresholds,
            lambda: result.link_rate,
            lambda: result.utilization(),
            lambda: result.loss_fraction(),
        ):
            with pytest.raises(ConfigurationError, match="3 links"):
                read()


class TestResultCache:
    def test_put_get_round_trip(self, executed, tmp_path):
        job, record = executed
        cache = ResultCache(tmp_path)
        cache.put(record)
        cached = cache.get(job.digest())
        assert isinstance(cached, ScenarioRecord)
        assert cached == record

    @pytest.mark.parametrize("schema", RETIRED_SCHEMAS)
    def test_entry_under_a_retired_schema_is_a_miss(self, executed, tmp_path, schema):
        job, record = executed
        cache = ResultCache(tmp_path)
        cache.put(record)
        path = cache.path(record.job_digest)
        path.write_text(json.dumps(dict(record.to_dict(), schema=schema)))
        assert cache.get(job.digest()) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_runner_replays_jobs_from_cache(self, shape, tmp_path):
        jobs = [shape(seed=seed) for seed in (1, 2)]
        cold = CampaignRunner(cache=ResultCache(tmp_path))
        first = cold.run(jobs)
        assert cold.last_stats.executed == 2
        warm = CampaignRunner(cache=ResultCache(tmp_path))
        second = warm.run(jobs)
        assert warm.last_stats.cache_hits == 2
        assert warm.last_stats.executed == 0
        assert second == first
        assert all(record.telemetry.cache_hit for record in second)


class TestParallelism:
    def test_parallel_run_matches_serial(self, shape):
        # The same seeded jobs produce identical records — blocking
        # probabilities included — whether simulated in-process or
        # across a process pool.
        jobs = [shape(seed=seed) for seed in (1, 2, 3)]
        serial = CampaignRunner(workers=1).run(jobs)
        parallel = CampaignRunner(workers=2).run(jobs)
        assert serial == parallel
        assert [canonical(r) for r in serial] == [canonical(r) for r in parallel]

    def test_duplicate_jobs_simulate_once(self, shape):
        runner = CampaignRunner()
        records = runner.run([shape(seed=7), shape(seed=7)])
        assert runner.last_stats.submitted == 2
        assert runner.last_stats.unique == 1
        assert records[0] is records[1]

    def test_mixed_batch_serial_parallel_and_replay_are_byte_identical(self, tmp_path):
        # Both shapes in one batch, through one runner, into one cache
        # directory under the one tag.
        jobs = [make(seed=seed) for seed in (1, 2) for make in SHAPES.values()]
        serial = CampaignRunner(workers=1).run(jobs)
        pooled = CampaignRunner(workers=2, cache=ResultCache(tmp_path))
        parallel = pooled.run(jobs)
        assert pooled.last_stats.executed == len(jobs)
        replay = CampaignRunner(workers=2, cache=ResultCache(tmp_path))
        cached = replay.run(jobs)
        assert replay.last_stats.executed == 0
        assert (
            [canonical(r) for r in serial]
            == [canonical(r) for r in parallel]
            == [canonical(r) for r in cached]
        )
        for path in ResultCache(tmp_path).entries():
            assert json.loads(path.read_text())["schema"] == CAMPAIGN_SCHEMA
