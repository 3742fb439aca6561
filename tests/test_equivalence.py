"""Byte-identity of the hot-path optimisations, pinned by goldens.

``tests/data/equivalence_goldens.json`` was captured from the simulator
*before* the engine fast path (``schedule_fast``, pop-once run loop)
and the source emission rewrite.  Each golden pins:

* the campaign job digest (the scenario description is unchanged),
* the SHA-256 of the canonical JSON of the full
  :class:`~repro.experiments.campaign.ScenarioRecord` (every per-flow
  byte counter, threshold, and delay percentile is unchanged),
* the event count and per-flow packet counts (readable diagnostics when
  the record digest does drift).

One golden per scheme family, using the same scenario definitions as
the quick macro benchmark cases, so the workloads whose speed we track
are exactly the workloads whose outputs are pinned.

Regenerate (only after an *intentional* behaviour change) by running
this file's ``_golden_entry`` over the suite and rewriting the JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.suite import MACRO, default_suite
from repro.experiments.campaign import ScenarioJob, ScenarioRecord
from repro.experiments.runner import run_scenario
from repro.sim.engine import Simulator

GOLDENS_PATH = Path(__file__).parent / "data" / "equivalence_goldens.json"


def _load_goldens() -> dict:
    raw = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    assert raw["schema"] == "repro-equivalence-v1"
    return raw


def _quick_macro_cases() -> dict:
    """Quick macro cases that run the classic single-port pipeline.

    Network-fabric macro cases (``NetworkJob``) are covered by their own
    determinism tests; the goldens pin the single-port path only.
    """
    return {
        case.name: case
        for case in default_suite(quick=True)
        if case.kind == MACRO and isinstance(case.job, ScenarioJob)
    }


def _record_digest(record: ScenarioRecord) -> str:
    canonical = json.dumps(
        record.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _golden_entry(case) -> dict:
    job = case.job
    result = run_scenario(
        list(job.flows), job.scheme, job.buffer_size, **job.scenario_kwargs()
    )
    record = ScenarioRecord.from_result(result, job.digest())
    return {
        "job_digest": job.digest(),
        "record_digest": _record_digest(record),
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
        assert set(goldens["goldens"]) == set(_quick_macro_cases())

    @pytest.mark.parametrize(
        "name",
        ["fifo-threshold", "shared-headroom", "wfq-threshold", "hybrid-sharing"],
    )
    def test_scenario_byte_identical(self, goldens, name):
        case = _quick_macro_cases()[name]
        golden = goldens["goldens"][name]
        # The scenario *description* must be the one the golden pinned …
        assert case.job.digest() == golden["job_digest"], (
            f"{name}: scenario definition drifted; the golden no longer "
            "pins the workload it was captured from"
        )
        fresh = _golden_entry(case)
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
