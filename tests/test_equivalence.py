"""Byte-identity of the hot-path optimisations, pinned by goldens.

``tests/data/equivalence_goldens.json`` was captured from the simulator
*before* the engine fast path (``schedule_fast``, pop-once run loop)
and the source emission rewrite.  Each golden pins:

* the campaign job digest (the scenario description is unchanged),
* the SHA-256 of the canonical JSON of the full campaign record (every
  per-flow byte counter, threshold, and delay percentile is unchanged),
* the event count and per-flow packet counts (readable diagnostics when
  the record digest does drift).

One golden per scheme family on the paper's Table 1 workload; the four
scenarios are defined here (``_golden_jobs``) and the pinned job digests
prove they are the ones the goldens were captured from.

The goldens were captured under ``repro-campaign-v1``, when a one-port
job was a flat dict of twelve fields and its record a flat dict of one
link's measurements.  A job is now a scenario and a record its links
(``repro-campaign-v2``), so the file is compared through a *reference
projection* kept here, not in ``src/``: ``_v1_job_dict`` and
``_v1_record_dict`` rebuild the v1 forms from the unified job and
record, and those must hash to the pinned digests.  The goldens file
stays byte-identical across the schema change — which is the proof that
the change moved no measured byte — and the library carries no second
serializer to keep it so.

Regenerate (only after an *intentional* behaviour change) by running
this file's ``_golden_entry`` over ``_golden_jobs`` and rewriting the
JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.campaign import ScenarioJob, ScenarioRecord
from repro.experiments.fabric import run_fabric
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import CASE1_GROUPS, table1_flows
from repro.sim.engine import Simulator
from repro.units import mbytes

GOLDENS_PATH = Path(__file__).parent / "data" / "equivalence_goldens.json"


def _load_goldens() -> dict:
    raw = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    assert raw["schema"] == "repro-equivalence-v1"
    return raw


def _golden_jobs(sim_time: float) -> dict:
    """One single-port Table-1 scenario per scheme family, by golden name."""

    def job(scheme: Scheme, seed: int, **kwargs) -> ScenarioJob:
        return ScenarioJob.for_scenario(
            table1_flows(), scheme, mbytes(1.0), seed=seed, sim_time=sim_time, **kwargs
        )

    return {
        "fifo-threshold": job(Scheme.FIFO_THRESHOLD, 11),
        "shared-headroom": job(Scheme.FIFO_SHARING, 12, headroom=mbytes(0.5)),
        "wfq-threshold": job(Scheme.WFQ_THRESHOLD, 13, delay_histograms=True),
        "hybrid-sharing": job(
            Scheme.HYBRID_SHARING, 14, headroom=mbytes(0.5), groups=CASE1_GROUPS
        ),
    }


def _sha256(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _v1_job_dict(job: ScenarioJob) -> dict:
    """The flat ``repro-campaign-v1`` form of a one-link job."""
    scenario = job.scenario
    node, (link,) = scenario.nodes[0], scenario.links
    return {
        "schema": "repro-campaign-v1",
        "flows": [routed.spec.to_dict() for routed in scenario.flows],
        "scheme": node.scheme.name,
        "buffer_size": float(node.buffer_size),
        "link_rate": float(link.rate),
        "sim_time": float(scenario.sim_time),
        "warmup": None if scenario.warmup is None else float(scenario.warmup),
        "seed": int(scenario.seed),
        "headroom": float(node.headroom),
        "groups": None if node.groups is None else [list(g) for g in node.groups],
        "packet_size": float(scenario.packet_size),
        "delay_histograms": bool(scenario.delay_histograms),
        "max_events": scenario.max_events,
    }


def _v1_record_dict(job: ScenarioJob, record: ScenarioRecord) -> dict:
    """The flat ``repro-campaign-v1`` form of a one-link record."""
    unified = record.to_dict()
    (link,) = unified["links"].values()
    return {
        "schema": "repro-campaign-v1",
        "job_digest": _sha256(_v1_job_dict(job)),
        "scheme": job.scenario.nodes[0].scheme.name,
        "buffer_size": link.pop("buffer_size"),
        "link_rate": link.pop("rate"),
        **link,  # flow_stats, thresholds, queue_rates, queue_buffers
        **{
            key: unified[key]
            for key in ("sim_time", "warmup", "seed", "events_processed", "delays")
        },
    }


def _golden_entry(job: ScenarioJob) -> dict:
    record = ScenarioRecord.from_result(run_fabric(job.scenario), job.digest())
    return {
        "job_digest": _sha256(_v1_job_dict(job)),
        "record_digest": _sha256(_v1_record_dict(job, record)),
        "events_processed": record.events_processed,
        "flow_counts": {
            str(fid): [fs.offered_packets, fs.dropped_packets, fs.departed_packets]
            for fid, fs in sorted(record.flow_stats.items())
        },
    }


class TestGoldenEquivalence:
    """The optimised hot path reproduces the pre-change outputs exactly."""

    @pytest.fixture(scope="class")
    def goldens(self):
        return _load_goldens()

    def test_goldens_cover_every_scheme_family(self, goldens):
        assert set(goldens["goldens"]) == set(_golden_jobs(goldens["sim_time"]))

    @pytest.mark.parametrize(
        "name",
        ["fifo-threshold", "shared-headroom", "wfq-threshold", "hybrid-sharing"],
    )
    def test_scenario_byte_identical(self, goldens, name):
        job = _golden_jobs(goldens["sim_time"])[name]
        golden = goldens["goldens"][name]
        fresh = _golden_entry(job)
        # The scenario *description* must be the one the golden pinned …
        assert fresh["job_digest"] == golden["job_digest"], (
            f"{name}: scenario definition drifted; the golden no longer "
            "pins the workload it was captured from"
        )
        # … and cheap counters first, for a readable failure …
        assert fresh["events_processed"] == golden["events_processed"]
        assert fresh["flow_counts"] == golden["flow_counts"]
        # … then the full record: every byte of output is unchanged.
        assert fresh["record_digest"] == golden["record_digest"]


class TestScheduleFastEquivalence:
    """schedule_fast orders identically to schedule at equal timestamps."""

    def test_interleaved_ordering_matches_schedule(self):
        fired_mixed, fired_plain = [], []
        sim_a, sim_b = Simulator(), Simulator()
        for i in range(50):
            # Same timestamps, alternating scheduling APIs on sim_a.
            delay = (i % 7) * 0.125
            if i % 2:
                sim_a.schedule_fast(delay, fired_mixed.append, i)
            else:
                sim_a.schedule(delay, fired_mixed.append, i)
            sim_b.schedule(delay, fired_plain.append, i)
        sim_a.run()
        sim_b.run()
        assert fired_mixed == fired_plain
