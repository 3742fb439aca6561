"""Live reprovisioning: equivalence, reclamation semantics, RPR206."""

import json

import pytest

from repro.check.artifacts import check_artifact_file
from repro.experiments.fabric import run_fabric
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.reclaim import record_loss, run_reclaim_study
from repro.obs import JsonlSink


def paired_runs(seed, *, hops=2, sim_time=4.0):
    static = run_fabric(
        demo_tandem(hops=hops, seed=seed, sim_time=sim_time, churn=True)
    )
    reclaim = run_fabric(
        demo_tandem(
            hops=hops, seed=seed, sim_time=sim_time, churn=True, reclamation=True
        )
    )
    return static, reclaim


class TestEquivalenceWithStatic:
    """The pool admits exactly when the FIFO region (eq. 9) admits."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_blocking_matches_static_on_the_same_sample_path(self, seed):
        static, reclaim = paired_runs(seed)
        assert static.churn.arrivals == reclaim.churn.arrivals
        assert static.churn.accepted == reclaim.churn.accepted
        assert static.churn.blocked == reclaim.churn.blocked
        assert static.churn.per_node == reclaim.churn.per_node

    def test_blocking_probability_no_worse_than_static(self):
        static, reclaim = paired_runs(7, hops=3)
        assert (
            reclaim.churn.blocking_probability
            <= static.churn.blocking_probability
        )

    def test_reclamation_off_is_the_static_run(self):
        base = run_fabric(demo_tandem(hops=2, seed=5, sim_time=4.0))
        off = run_fabric(
            demo_tandem(hops=2, seed=5, sim_time=4.0, reclamation=False)
        )
        assert base.events_processed == off.events_processed
        assert base.churn.to_dict() == off.churn.to_dict()


class TestReclamationRun:
    def test_deterministic_under_reclamation(self):
        scenario = demo_tandem(hops=2, seed=9, sim_time=4.0, reclamation=True)
        first = run_fabric(scenario)
        second = run_fabric(scenario)
        assert first.events_processed == second.events_processed
        assert first.churn.to_dict() == second.churn.to_dict()

    def test_scenario_round_trips_with_reclamation(self):
        from repro.experiments.fabric import NetworkScenario

        scenario = demo_tandem(hops=2, seed=1, reclamation=True)
        rebuilt = NetworkScenario.from_dict(scenario.to_dict())
        assert rebuilt.churn.reclamation is True
        assert rebuilt == scenario


class TestTraceAudit:
    def test_rpr206_passes_over_an_emitted_trace(self, tmp_path):
        trace = tmp_path / "reclaim.jsonl"
        scenario = demo_tandem(
            hops=2, seed=0, sim_time=2.0, reclamation=True,
            delay_histograms=False,
        )
        with JsonlSink(trace) as sink:
            run_fabric(scenario, sink=sink)
        lines = [
            json.loads(line)
            for line in trace.read_text().splitlines()
            if line.strip()
        ]
        kinds = {entry.get("kind") for entry in lines}
        assert "pool" in kinds
        assert "reprovision" in kinds
        assert check_artifact_file(trace) == []

    def test_rpr206_flags_a_seeded_violation(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        scenario = demo_tandem(
            hops=2, seed=0, sim_time=2.0, reclamation=True,
            delay_histograms=False,
        )
        with JsonlSink(trace) as sink:
            run_fabric(scenario, sink=sink)
        lines = trace.read_text().splitlines()
        corrupted = []
        broken = False
        for line in lines:
            entry = json.loads(line)
            if not broken and entry.get("kind") == "pool":
                entry["holes"] = entry["holes"] + 4096.0
                broken = True
            corrupted.append(json.dumps(entry))
        trace.write_text("\n".join(corrupted) + "\n")
        findings = check_artifact_file(trace)
        assert [f.rule_id for f in findings] == ["RPR206"]
        assert "conserve" in findings[0].message


class TestStudy:
    def test_study_reports_blocking_no_worse_than_static(self):
        study = run_reclaim_study(hops=2, seeds=(1, 2))
        assert len(study.static) == len(study.reclaim) == 2
        for static, reclaim in zip(study.static, study.reclaim):
            assert (
                reclaim.blocking_probability()
                <= static.blocking_probability()
            )

    def test_render_mentions_both_modes(self):
        study = run_reclaim_study(hops=2, seeds=(1,))
        text = study.render()
        assert "blocking static" in text
        assert "blocking reclaim" in text
        assert "means over 1 seed(s)" in text

    def test_record_loss_is_a_fraction(self):
        study = run_reclaim_study(hops=2, seeds=(1,))
        for record in study.static + study.reclaim:
            assert 0.0 <= record_loss(record) < 1.0
