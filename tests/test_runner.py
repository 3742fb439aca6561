"""Scenario runner: wiring, determinism, measurement windows."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import CampaignRunner
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.spec import ScenarioSpec, run_spec
from repro.experiments.workloads import (
    CASE1_GROUPS,
    TABLE1_CONFORMANT,
    table1_flows,
)
from repro.units import mbytes

FLOWS = table1_flows()
FAST = dict(sim_time=1.0, warmup=0.1)


class TestBasicRun:
    def test_all_flows_reported(self):
        result = run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=1, **FAST)
        assert set(result.flow_stats) == {flow.flow_id for flow in FLOWS}

    def test_events_were_processed(self):
        result = run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=1, **FAST)
        assert result.events_processed > 1000

    def test_duration_is_measurement_window(self):
        result = run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=1,
                              sim_time=2.0, warmup=0.5)
        assert result.duration == pytest.approx(1.5)

    def test_default_warmup_is_ten_percent(self):
        result = run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=1, sim_time=2.0)
        assert result.warmup == pytest.approx(0.2)

    def test_utilization_at_most_one(self):
        result = run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=1, **FAST)
        assert 0.0 < result.utilization() <= 1.0 + 1e-6

    def test_loss_fraction_bounds(self):
        result = run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=1, **FAST)
        assert 0.0 <= result.loss_fraction() < 1.0

    def test_throughput_subset_sums(self):
        result = run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=1, **FAST)
        total = result.throughput()
        by_flow = sum(result.throughput([flow.flow_id]) for flow in FLOWS)
        assert total == pytest.approx(by_flow)


class TestDeterminism:
    def test_same_seed_same_result(self):
        first = run_scenario(FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1), seed=7, **FAST)
        second = run_scenario(FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1), seed=7, **FAST)
        assert first.throughput() == second.throughput()
        assert first.loss_fraction() == second.loss_fraction()
        assert first.events_processed == second.events_processed

    def test_different_seed_different_result(self):
        first = run_scenario(FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1), seed=7, **FAST)
        second = run_scenario(FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1), seed=8, **FAST)
        assert first.throughput() != second.throughput()


class TestSchemeWiring:
    def test_threshold_scheme_records_thresholds(self):
        result = run_scenario(FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1), seed=1, **FAST)
        assert len(result.thresholds) == len(FLOWS)

    def test_hybrid_records_queue_configuration(self):
        result = run_scenario(
            FLOWS, Scheme.HYBRID_SHARING, mbytes(1), seed=1,
            groups=CASE1_GROUPS, **FAST
        )
        assert len(result.queue_rates) == 3
        assert len(result.queue_buffers) == 3

    def test_conformant_flows_protected_by_thresholds(self):
        # The central qualitative claim, in miniature: with thresholds the
        # conformant flows lose (almost) nothing even under overload.
        result = run_scenario(
            FLOWS, Scheme.FIFO_THRESHOLD, mbytes(2), seed=3, sim_time=3.0
        )
        assert result.loss_fraction(TABLE1_CONFORMANT) < 0.001

    def test_no_management_starves_conformant_flows(self):
        result = run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=3, sim_time=3.0)
        assert result.loss_fraction(TABLE1_CONFORMANT) > 0.001


class TestSchemeVariants:
    def test_scfq_scheme_runs_and_protects(self):
        result = run_scenario(
            FLOWS, Scheme.SCFQ_THRESHOLD, mbytes(2), seed=3, sim_time=2.0
        )
        assert result.loss_fraction(TABLE1_CONFORMANT) < 0.005
        assert result.utilization() > 0.5

    def test_scfq_sharing_scheme_runs(self):
        result = run_scenario(
            FLOWS, Scheme.SCFQ_SHARING, mbytes(3), seed=3, sim_time=2.0
        )
        assert result.utilization() > 0.5


class TestDelayHistograms:
    def test_percentiles_available_when_enabled(self):
        result = run_scenario(
            FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1), seed=1,
            delay_histograms=True, **FAST,
        )
        p50 = result.delay_percentile(8, 50)
        p99 = result.delay_percentile(8, 99)
        assert 0.0 < p50 <= p99
        # All delays are bounded by the FIFO bound B/R + one packet.
        assert p99 <= mbytes(1) / result.link_rate + 0.001

    def test_disabled_by_default(self):
        result = run_scenario(FLOWS, Scheme.FIFO_THRESHOLD, mbytes(1), seed=1,
                              **FAST)
        with pytest.raises(ConfigurationError):
            result.delay_percentile(8, 50)


class TestValidation:
    def test_bad_sim_time(self):
        with pytest.raises(ConfigurationError):
            run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), sim_time=0.0)

    def test_bad_warmup(self):
        with pytest.raises(ConfigurationError):
            run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), sim_time=1.0, warmup=1.5)


class TestReplications:
    """Seeds replicate a scenario through ``run_spec``: one campaign job
    per seed, folded by the seed fold of sweeps and figures."""

    @staticmethod
    def spec(seeds):
        return ScenarioSpec.from_dict({
            "name": "replications", "workload": "table1", "scheme": "FIFO_NONE",
            "buffer_mb": 1.0, "seeds": list(seeds), **FAST,
        })

    def test_mean_over_seeds(self):
        result = run_spec(self.spec([1, 2]))["utilization"]
        assert result.n == 2
        assert 0.0 < result.mean <= 100.0 + 1e-4

    def test_single_seed_zero_halfwidth(self):
        assert run_spec(self.spec([1]))["utilization"].halfwidth == 0.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="seeds must be non-empty"):
            self.spec([])

    def test_per_seed_samples_returned(self):
        spec = self.spec([1, 2, 3])
        samples = [100.0 * r.utilization() for r in CampaignRunner().run(spec.jobs())]
        assert len(samples) == 3
        assert run_spec(spec)["utilization"].mean == pytest.approx(sum(samples) / 3)

    def test_samples_follow_seed_order(self):
        seeds = [5, 1, 9]
        records = CampaignRunner().run(self.spec(seeds).jobs())
        singles = [
            run_scenario(FLOWS, Scheme.FIFO_NONE, mbytes(1), seed=s, **FAST).utilization()
            for s in seeds
        ]
        assert [record.utilization() for record in records] == pytest.approx(singles)
