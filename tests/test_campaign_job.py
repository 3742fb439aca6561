"""ScenarioJob: digest stability, serialization, validation."""

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import CAMPAIGN_SCHEMA, ScenarioJob
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import CASE1_GROUPS, table1_flows
from repro.units import mbytes

FLOWS = table1_flows()

# A pinned digest for a fully-pinned job.  If this test starts failing,
# either a job field changed meaning (bump CAMPAIGN_SCHEMA!) or digesting
# became platform-dependent (a bug: the cache must be shareable).
PINNED_JOB = dict(
    flows=FLOWS,
    scheme=Scheme.FIFO_THRESHOLD,
    buffer_size=mbytes(1),
    sim_time=2.0,
    warmup=0.25,
    seed=7,
)


def make_job(**overrides):
    kwargs = dict(PINNED_JOB)
    kwargs.update(overrides)
    return ScenarioJob(**kwargs)


class TestDigest:
    def test_digest_is_stable_across_instances(self):
        assert make_job().digest() == make_job().digest()

    def test_digest_is_hex_sha256(self):
        digest = make_job().digest()
        assert len(digest) == 64
        int(digest, 16)  # raises if not hex

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

    def test_schema_tag_participates(self):
        assert make_job().to_dict()["schema"] == CAMPAIGN_SCHEMA


class TestRoundTrips:
    def test_json_round_trip_preserves_job_and_digest(self):
        job = make_job(groups=CASE1_GROUPS, delay_histograms=True)
        rebuilt = ScenarioJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert rebuilt == job
        assert rebuilt.digest() == job.digest()
        # A dict written while jobs could still pin an event-queue
        # backend loads to the same job: results were byte-identical
        # across backends, so dropping the key is result-neutral.
        stale = ScenarioJob.from_dict(dict(job.to_dict(), equeue="heap"))
        assert stale == job
        assert stale.digest() == job.digest()

    def test_pickle_round_trip_preserves_job_and_digest(self):
        job = make_job(max_events=500_000)
        rebuilt = pickle.loads(pickle.dumps(job))
        assert rebuilt == job
        assert rebuilt.digest() == job.digest()

    def test_from_dict_rejects_wrong_schema(self):
        raw = make_job().to_dict()
        raw["schema"] = "repro-campaign-v0"
        with pytest.raises(ConfigurationError):
            ScenarioJob.from_dict(raw)

    def test_from_dict_rejects_unknown_scheme(self):
        raw = make_job().to_dict()
        raw["scheme"] = "QUANTUM_FAIRNESS"
        with pytest.raises(ConfigurationError):
            ScenarioJob.from_dict(raw)

    def test_job_is_hashable(self):
        assert len({make_job(), make_job(), make_job(seed=9)}) == 2


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

    def test_for_scenario_rejects_unknown_kwargs(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            ScenarioJob.for_scenario(
                FLOWS, Scheme.FIFO_NONE, mbytes(1), sim_tiem=1.0
            )

    def test_for_scenario_matches_direct_construction(self):
        built = ScenarioJob.for_scenario(
            FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1),
            sim_time=2.0, warmup=0.25, seed=7,
        )
        assert built == make_job()


class TestScenarioKwargs:
    def test_kwargs_cover_every_runner_parameter(self):
        kwargs = make_job(groups=CASE1_GROUPS).scenario_kwargs()
        assert kwargs["seed"] == 7
        assert kwargs["groups"] == CASE1_GROUPS
        assert set(kwargs) == {
            "link_rate", "sim_time", "warmup", "seed", "headroom",
            "groups", "packet_size", "delay_histograms", "max_events",
        }
