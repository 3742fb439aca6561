"""CampaignRunner: ordering, deduplication, caching, parallel == serial."""

import dataclasses
import json
import pathlib
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioJob,
    execute_job,
)
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import table1_flows
from repro.units import mbytes

FLOWS = table1_flows()
SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src"
FAST = dict(sim_time=0.5, warmup=0.1)


def sweep_jobs():
    """A miniature Figure-1-style sweep: schemes x buffers x seeds."""
    return [
        ScenarioJob.for_scenario(FLOWS, scheme, buffer, seed=seed, **FAST)
        for scheme in (Scheme.FIFO_NONE, Scheme.FIFO_THRESHOLD)
        for buffer in (mbytes(0.5), mbytes(1))
        for seed in (1, 2)
    ]


def canonical(record):
    return json.dumps(record.to_dict(), sort_keys=True)


class TestSerialExecution:
    def test_records_align_with_jobs(self):
        jobs = sweep_jobs()
        records = CampaignRunner().run(jobs)
        assert len(records) == len(jobs)
        for job, record in zip(jobs, records):
            assert record.job_digest == job.digest()
            assert record.seed == job.scenario.seed
            assert record.buffer_size == job.scenario.nodes[0].buffer_size

    def test_record_matches_direct_execution(self):
        job = sweep_jobs()[0]
        [record] = CampaignRunner().run([job])
        assert canonical(record) == canonical(execute_job(job))

    def test_duplicate_jobs_simulated_once(self):
        job = sweep_jobs()[0]
        runner = CampaignRunner()
        records = runner.run([job, job, job])
        assert records[0] is records[1] is records[2]
        stats = runner.last_stats
        assert stats.submitted == 3
        assert stats.unique == 1
        assert stats.executed == 1

    def test_empty_batch(self):
        runner = CampaignRunner()
        assert runner.run([]) == []
        assert runner.last_stats.submitted == 0


class TestParallelExecution:
    def test_workers_two_matches_serial_byte_for_byte(self):
        jobs = sweep_jobs()
        serial = CampaignRunner(workers=1).run(jobs)
        parallel = CampaignRunner(workers=2).run(jobs)
        assert [canonical(r) for r in serial] == [canonical(r) for r in parallel]

    def test_records_survive_pickling(self):
        # Records cross process boundaries; the round trip must be exact.
        [record] = CampaignRunner().run(sweep_jobs()[:1])
        clone = pickle.loads(pickle.dumps(record))
        assert canonical(clone) == canonical(record)
        assert clone == record


class TestCaching:
    def test_second_run_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = sweep_jobs()
        runner = CampaignRunner(cache=cache)

        cold = runner.run(jobs)
        assert runner.last_stats.cache_hits == 0
        assert runner.last_stats.executed == runner.last_stats.unique

        warm = runner.run(jobs)
        assert runner.last_stats.cache_hits == runner.last_stats.unique
        assert runner.last_stats.executed == 0
        assert [canonical(r) for r in warm] == [canonical(r) for r in cold]

    def test_changed_input_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = CampaignRunner(cache=cache)
        job = sweep_jobs()[0]
        runner.run([job])

        changed = ScenarioJob(
            dataclasses.replace(job.scenario, seed=job.scenario.seed + 100)
        )
        runner.run([changed])
        assert runner.last_stats.cache_hits == 0
        assert runner.last_stats.executed == 1

    def test_cache_shared_between_runners(self, tmp_path):
        cache_dir = tmp_path / "cache"
        jobs = sweep_jobs()[:2]
        CampaignRunner(cache=ResultCache(cache_dir)).run(jobs)
        second = CampaignRunner(cache=ResultCache(cache_dir))
        second.run(jobs)
        assert second.last_stats.cache_hits == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_finished_before_a_raise_are_stored(self, tmp_path, workers):
        good = sweep_jobs()[:2]
        poison = ScenarioJob.for_scenario(
            FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=1, max_events=50, **FAST
        )
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SimulationError, match="max_events=50"):
            CampaignRunner(workers=workers, cache=cache).run([*good, poison])
        assert [path.stem for path in cache.entries()] == sorted(
            job.digest() for job in good
        )


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(workers=0)


def with_buffers(scenario, buffer_size):
    """The scenario with every forwarding node's buffer set to ``buffer_size``."""
    return dataclasses.replace(
        scenario,
        nodes=tuple(
            node
            if node.buffer_size is None
            else dataclasses.replace(node, buffer_size=buffer_size)
            for node in scenario.nodes
        ),
    )


class TestPreflight:
    """The invariant audit that runs before any simulation time is spent."""

    def _churn_job(self, *, buffer_size=None):
        from repro.experiments.fabric.demo import demo_tandem

        scenario = demo_tandem(hops=2, sim_time=0.5, delay_histograms=False)
        if buffer_size is not None:
            scenario = with_buffers(scenario, buffer_size)
        return ScenarioJob(scenario)

    def test_clean_scenario_passes_preflight(self):
        job = self._churn_job()
        [record] = CampaignRunner(preflight=True).run([job])
        assert record.job_digest == job.digest()

    def test_infeasible_scenario_rejected_before_execution(self):
        # A churn scenario outside its admission region is refused before
        # anything runs — a clean one-link job in the batch included.
        runner = CampaignRunner(preflight=True)
        with pytest.raises(ConfigurationError, match="pre-flight"):
            runner.run([sweep_jobs()[0], self._churn_job(buffer_size=2000.0)])
        assert runner.last_stats is None  # nothing executed

    def test_preflight_off_by_default(self):
        # The fabric itself still raises at churn start, so the batch
        # fails either way — but without preflight the error comes from
        # the run, not the auditor.
        runner = CampaignRunner()
        with pytest.raises(ConfigurationError) as excinfo:
            runner.run([self._churn_job(buffer_size=2000.0)])
        assert "pre-flight" not in str(excinfo.value)

    def test_overloaded_one_link_job_passes_preflight_and_executes(self):
        # Under-buffering Table 1 (0.05 MB) is the paper's own overload
        # method: the auditor warns, pre-flight acts on errors only.
        from repro.check.invariants import check_scenario

        job = ScenarioJob.for_scenario(
            FLOWS, Scheme.FIFO_THRESHOLD, mbytes(0.05), seed=1, **FAST
        )
        findings = check_scenario(job.scenario)
        assert findings and {f.severity for f in findings} == {"warning"}
        [record] = CampaignRunner(preflight=True).run([job])
        assert record.events_processed > 0
        assert record.loss_fraction() > 0.0

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("buffer_mb", [0.01, 0.05, 1.0])
    def test_churnless_scenario_never_yields_an_error_finding(self, scheme, buffer_mb):
        # What lets pre-flight audit churn scenarios only: without churn
        # no finding is error-severity, however overloaded the scenario.
        from repro.check.invariants import check_scenario
        from repro.experiments.fabric.demo import demo_tandem
        from repro.experiments.workloads import CASE1_GROUPS

        port = ScenarioJob.for_scenario(
            FLOWS, scheme, mbytes(buffer_mb),
            groups=CASE1_GROUPS if scheme.is_hybrid else None,
        ).scenario
        squeezed = with_buffers(demo_tandem(hops=3, churn=False), mbytes(buffer_mb))
        for scenario in (port, squeezed):
            assert scenario.churn is None
            assert all(f.severity == "warning" for f in check_scenario(scenario))


    def test_preflight_loads_no_code_rule_module(self):
        # The pre-flight needs the auditor only: the code-rule engine,
        # its rules and the reporters stay unloaded, and the audit adds
        # at most the check package, its findings and the invariants.
        code = textwrap.dedent(
            """
            import sys
            import repro.experiments.campaign.runner as runner
            import repro.experiments.fabric
            import repro.experiments.sweep
            from repro.experiments.campaign import ScenarioJob
            from repro.experiments.fabric.demo import demo_tandem

            job = ScenarioJob(demo_tandem(hops=2, churn=True))
            before = set(sys.modules)
            runner.preflight_jobs({job.digest(): job}, "rejected")
            added = {m for m in set(sys.modules) - before if m.startswith("repro.")}
            assert added <= {
                "repro.check", "repro.check.findings", "repro.check.invariants"
            }, sorted(added)
            linter = [
                f"repro.check.{name}"
                for name in ("engine", "rules", "suppressions", "registry",
                             "reporters", "program_rules", "project")
                if f"repro.check.{name}" in sys.modules
            ]
            assert linter == [], linter
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_ROOT), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
