"""Artifact schema audits (RPR205): drift, tampering, stream formats."""

import json
import pathlib

import pytest

from repro.check.artifacts import (
    GOLDENS_SCHEMA,
    KNOWN_SCHEMAS,
    check_artifact_file,
    schema_family,
)
from repro.check.engine import check_paths
from repro.experiments.campaign import ResultCache, ScenarioJob, execute_job
from repro.experiments.campaign.job import CAMPAIGN_SCHEMA
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import table1_flows
from repro.experiments.sweep import (
    AGGREGATE_SCHEMA,
    CLAIM_SCHEMA,
    SWEEP_SPEC_SCHEMA,
    SweepSpec,
)
from repro.experiments.sweep.queue import _claim
from repro.obs.events import TRACE_SCHEMA
from repro.obs.telemetry import TELEMETRY_SCHEMA
from repro.obs.timeline import TIMELINE_SCHEMA, Timeline
from repro.sim.engine import Simulator
from repro.units import mbytes

GOLDENS = pathlib.Path("tests/data/equivalence_goldens.json")


def codes(findings):
    return [finding.rule_id for finding in findings]


class TestSchemaFamily:
    def test_versioned_tags_split_on_suffix(self):
        assert schema_family("repro-trace-v1") == "repro-trace"
        assert schema_family("repro-campaign-net-v3") == "repro-campaign-net"

    def test_unversioned_tags_have_no_family(self):
        assert schema_family("repro-trace") == ""
        assert schema_family("repro-trace-vNaN") == ""

    def test_every_known_tag_maps_back_to_its_family(self):
        assert len(KNOWN_SCHEMAS) == 8
        for family, tag in KNOWN_SCHEMAS.items():
            assert schema_family(tag) == family


class TestCommittedArtifacts:
    def test_equivalence_goldens_are_current(self):
        assert check_artifact_file(GOLDENS) == []


class TestJsonArtifacts:
    def test_stale_schema_version_is_drift(self, tmp_path):
        target = tmp_path / "old.json"
        target.write_text(json.dumps({"schema": "repro-timeline-v0"}), encoding="utf-8")
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "drift" in findings[0].message

    def test_retired_campaign_tags(self, tmp_path):
        # One campaign family, one tag: a flat one-port entry from before
        # a job was a scenario is drift, the fabric's own family is gone.
        reports = {}
        for tag in ("repro-campaign-v1", "repro-campaign-net-v3"):
            target = tmp_path / f"{tag}.json"
            target.write_text(json.dumps({"schema": tag}), encoding="utf-8")
            [finding] = check_artifact_file(target)
            assert finding.rule_id == "RPR205"
            reports[tag] = finding.message
        assert "drift" in reports["repro-campaign-v1"]
        assert "repro-campaign-v2" in reports["repro-campaign-v1"]
        assert "unknown artifact schema family" in reports["repro-campaign-net-v3"]

    def test_unknown_schema_family(self, tmp_path):
        target = tmp_path / "alien.json"
        # repro-bench-v3: a baseline of the retired events/s harness.
        for tag in ("other-tool-v1", "repro-bench-v3"):
            target.write_text(json.dumps({"schema": tag}), encoding="utf-8")
            findings = check_artifact_file(target)
            assert codes(findings) == ["RPR205"]
            assert "unknown artifact schema family" in findings[0].message

    def test_missing_schema_tag(self, tmp_path):
        target = tmp_path / "untagged.json"
        target.write_text(json.dumps({"results": []}), encoding="utf-8")
        assert codes(check_artifact_file(target)) == ["RPR205"]

    def test_non_object_artifact(self, tmp_path):
        target = tmp_path / "list.json"
        target.write_text("[1, 2]", encoding="utf-8")
        assert codes(check_artifact_file(target)) == ["RPR205"]

    def test_goldens_tag_matches_equivalence_test_pin(self):
        assert json.loads(GOLDENS.read_text(encoding="utf-8"))["schema"] == GOLDENS_SCHEMA


class TestCacheEntries:
    """``repro check <cache>`` accepts exactly what ``ResultCache.get`` hits."""

    @pytest.fixture(scope="class")
    def record(self):
        job = ScenarioJob.for_scenario(
            table1_flows(), Scheme.FIFO_THRESHOLD, mbytes(1), sim_time=0.5, warmup=0.1, seed=3
        )
        return execute_job(job)

    def test_stored_record_is_clean(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        cache.put(record)
        assert cache.get(record.job_digest) == record
        assert check_paths([str(tmp_path)]) == []

    def test_schema_only_entry_is_flagged(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        cache.path(record.job_digest).write_text(
            json.dumps({"schema": CAMPAIGN_SCHEMA}), encoding="utf-8"
        )
        assert cache.get(record.job_digest) is None
        findings = check_paths([str(tmp_path)])
        assert codes(findings) == ["RPR205"]
        assert "does not decode" in findings[0].message

    def test_record_under_another_digest_is_flagged(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        cache.put(record)
        other = "0" * 64
        cache.path(other).write_text(
            cache.path(record.job_digest).read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert cache.get(other) is None
        findings = check_paths([str(tmp_path)])
        assert codes(findings) == ["RPR205"]
        assert findings[0].path == str(cache.path(other))
        assert "digest mismatch" in findings[0].message


class TestJsonlArtifacts:
    def test_current_trace_header_is_clean(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        target.write_text(
            json.dumps({"schema": TRACE_SCHEMA})
            + "\n"
            + json.dumps({"kind": "enqueue", "t": 0.1})
            + "\n",
            encoding="utf-8",
        )
        assert check_artifact_file(target) == []

    def test_stale_trace_header_is_drift(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        target.write_text(json.dumps({"schema": "repro-trace-v1"}) + "\n", encoding="utf-8")
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert TRACE_SCHEMA in findings[0].message

    def test_untagged_first_line_is_flagged(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        target.write_text(json.dumps({"kind": "enqueue"}) + "\n", encoding="utf-8")
        assert codes(check_artifact_file(target)) == ["RPR205"]

    def test_telemetry_checks_every_line(self, tmp_path):
        target = tmp_path / "telemetry.jsonl"
        lines = [
            {"schema": TELEMETRY_SCHEMA, "wall_time": 0.2},
            {"schema": "repro-telemetry-v9", "wall_time": 0.3},
        ]
        target.write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "inconsistent" in findings[0].message

    def test_unparsable_line_is_flagged(self, tmp_path):
        target = tmp_path / "trace.jsonl"
        target.write_text("{broken\n", encoding="utf-8")
        assert codes(check_artifact_file(target)) == ["RPR205"]


SWEEP_SPEC_DICT = {
    "schema": SWEEP_SPEC_SCHEMA,
    "name": "audit",
    "kind": "scenario",
    "axes": [
        {"name": "scheme", "values": ["FIFO_NONE"]},
        {"name": "seed", "values": [1, 2]},
    ],
    "base": {"sim_time": 0.5, "warmup": 0.1},
    "metrics": ["utilization", "loss"],
}


class TestSweepArtifacts:
    def test_sweep_tags_are_registered(self):
        assert KNOWN_SCHEMAS["repro-sweep"] == AGGREGATE_SCHEMA
        assert KNOWN_SCHEMAS["repro-sweep-spec"] == SWEEP_SPEC_SCHEMA
        assert KNOWN_SCHEMAS["repro-claim"] == CLAIM_SCHEMA

    def test_committed_ci_grid_is_clean(self):
        assert check_artifact_file(pathlib.Path("examples/sweeps/ci_grid.json")) == []

    def test_valid_spec_round_trips_clean(self, tmp_path):
        target = tmp_path / "sweep.json"
        target.write_text(json.dumps(SWEEP_SPEC_DICT), encoding="utf-8")
        assert check_artifact_file(target) == []

    def test_malformed_spec_is_rejected(self, tmp_path):
        raw = dict(SWEEP_SPEC_DICT, axes=[{"name": "scheme", "values": ["BOGUS"]}])
        target = tmp_path / "sweep.json"
        target.write_text(json.dumps(raw), encoding="utf-8")
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "sweep spec rejected" in findings[0].message

    @pytest.mark.parametrize(
        "raw, named",
        [
            ({"schema": SWEEP_SPEC_SCHEMA, "axes": []}, "missing required key 'name'"),
            (
                dict(SWEEP_SPEC_DICT, axes=[["scheme", ["FIFO_NONE"]]]),
                "axis must be a JSON object, got list",
            ),
        ],
        ids=["no-name", "list-axis"],
    )
    def test_incomplete_spec_is_a_finding_not_a_crash(self, tmp_path, raw, named):
        target = tmp_path / "sweep.json"
        target.write_text(json.dumps(raw), encoding="utf-8")
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "sweep spec rejected" in findings[0].message
        assert named in findings[0].message

    def test_aggregate_with_matching_digest_is_clean(self, tmp_path):
        spec = SweepSpec.from_dict(SWEEP_SPEC_DICT)
        aggregate = {
            "schema": AGGREGATE_SCHEMA,
            "name": spec.name,
            "kind": spec.kind,
            "sweep_digest": spec.digest(),
            "sweep": spec.to_dict(),
            "cells": 2,
            "groups": [],
        }
        target = tmp_path / "agg.json"
        target.write_text(json.dumps(aggregate), encoding="utf-8")
        assert check_artifact_file(target) == []

    def test_aggregate_digest_mismatch_is_drift(self, tmp_path):
        spec = SweepSpec.from_dict(SWEEP_SPEC_DICT)
        aggregate = {
            "schema": AGGREGATE_SCHEMA,
            "sweep_digest": "f" * 64,
            "sweep": spec.to_dict(),
            "cells": 2,
            "groups": [],
        }
        target = tmp_path / "agg.json"
        target.write_text(json.dumps(aggregate), encoding="utf-8")
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "digest mismatch" in findings[0].message

    def test_aggregate_without_embedded_spec_is_flagged(self, tmp_path):
        target = tmp_path / "agg.json"
        target.write_text(
            json.dumps({"schema": AGGREGATE_SCHEMA, "groups": []}),
            encoding="utf-8",
        )
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "embedded sweep spec" in findings[0].message

    def test_shard_lines_are_checked_individually(self, tmp_path):
        # Worker shards are retired: a shard stream left over from an
        # older tree is flagged once, at its header line, as a family
        # the checker no longer knows -- its later lines are not re-read.
        target = tmp_path / "shard.jsonl"
        lines = [
            {"schema": "repro-sweep-shard-v1", "digest": "a" * 64, "metrics": {}},
            {"schema": "repro-sweep-shard-v9", "digest": "b" * 64},
        ]
        target.write_text(
            "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
        )
        [finding] = check_artifact_file(target)
        assert finding.rule_id == "RPR205"
        assert finding.line == 1
        assert "unknown artifact schema family" in finding.message

    def test_live_claim_file_is_clean(self, tmp_path):
        digest = "a" * 64
        path = tmp_path / f"{digest}.claim"
        assert _claim(str(path), digest, "auditor")
        assert check_artifact_file(path) == []

    def test_claim_digest_mismatch_is_flagged(self, tmp_path):
        target = tmp_path / ("b" * 64 + ".claim")
        target.write_text(
            json.dumps({"schema": CLAIM_SCHEMA, "digest": "a" * 64, "owner": "x"}),
            encoding="utf-8",
        )
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "claim digest mismatch" in findings[0].message

    def test_stale_claim_schema_is_drift(self, tmp_path):
        target = tmp_path / ("c" * 64 + ".claim")
        target.write_text(
            json.dumps({"schema": "repro-claim-v0", "digest": "c" * 64}),
            encoding="utf-8",
        )
        assert codes(check_artifact_file(target)) == ["RPR205"]

    def test_corrupt_claim_is_flagged(self, tmp_path):
        target = tmp_path / ("d" * 64 + ".claim")
        target.write_text("{torn", encoding="utf-8")
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "not valid JSON" in findings[0].message

    def test_timeline_tag_constant_matches_registry(self):
        assert KNOWN_SCHEMAS["repro-timeline"] == TIMELINE_SCHEMA

    def test_written_timeline_export_is_clean(self, tmp_path):
        timeline = Timeline(interval=0.5)
        sim = Simulator()
        timeline.probe("occupancy", lambda: sim.now)
        timeline.install(sim, 1.0)
        sim.run()
        assert timeline.ticks == 2
        target = tmp_path / "timeline.jsonl"
        timeline.write_jsonl(target)
        assert check_artifact_file(target) == []

    def test_stale_timeline_header_is_drift(self, tmp_path):
        target = tmp_path / "timeline.jsonl"
        target.write_text(
            json.dumps({"kind": "header", "schema": "repro-timeline-v0"}) + "\n",
            encoding="utf-8",
        )
        findings = check_artifact_file(target)
        assert codes(findings) == ["RPR205"]
        assert "drift" in findings[0].message
        assert TIMELINE_SCHEMA in findings[0].message
