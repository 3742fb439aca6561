"""Declarative scenario specifications."""

import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.schemes import Scheme
from repro.experiments.spec import ScenarioSpec, load_specs, run_spec
from repro.units import mbytes

BASE = {
    "name": "demo",
    "workload": "table1",
    "scheme": "FIFO_THRESHOLD",
    "buffer_mb": 1.0,
    "sim_time": 1.0,
    "seeds": [1],
    "metrics": ["utilization", "loss:conformant", "throughput:6,8"],
}


def spec_with(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return ScenarioSpec.from_dict(raw)


class TestFromDict:
    def test_basic_fields(self):
        spec = spec_with()
        assert spec.name == "demo"
        node = spec.scenario.nodes[0]
        assert spec.scenario.is_single_port
        assert node.scheme is Scheme.FIFO_THRESHOLD
        assert node.buffer_size == mbytes(1.0)
        assert len(spec.scenario.flows) == 9
        assert spec.conformant_ids == tuple(range(6))
        assert [job.scenario.seed for job in spec.jobs()] == [1]

    def test_missing_required_key(self):
        raw = dict(BASE)
        del raw["scheme"]
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(raw)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            spec_with(scheme="MAGIC")

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            spec_with(workload="table9")

    def test_unknown_metric(self):
        with pytest.raises(ConfigurationError):
            spec_with(metrics=["jitter"])

    def test_bad_metric_ids(self):
        with pytest.raises(ConfigurationError):
            spec_with(metrics=["loss:a,b"])

    def test_empty_seeds(self):
        with pytest.raises(ConfigurationError):
            spec_with(seeds=[])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"seeds": [1, 1, 1]}, "not repeat a value"),
            ({"seeds": [True]}, "'seed' must be an integer"),
            ({"seeds": [1.5]}, "'seed' must be an integer"),
            ({"buffer_mb": "big"}, "'buffer_mb' must be a number"),
            ({"delay_histograms": "yes"}, "must be true or false"),
            ({"sim_tme": 3}, "unknown spec key 'sim_tme'.*sim_time"),
            ({"seed": 3}, "unknown spec key 'seed'.*seeds"),
            ({"hops": 2}, "unknown spec key 'hops'"),
        ],
    )
    def test_every_key_is_typed_or_refused(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            spec_with(**overrides)

    @pytest.mark.parametrize(
        "key, value, read",
        [
            ("warmup", 0.0, lambda scenario: scenario.warmup),
            ("delay_histograms", True, lambda scenario: scenario.delay_histograms),
            ("max_events", 5000, lambda scenario: scenario.max_events),
        ],
    )
    def test_every_parameter_is_honoured(self, key, value, read):
        plain, changed = spec_with(), spec_with(**{key: value})
        assert read(changed.scenario) == value != read(plain.scenario)
        assert changed.jobs()[0].digest() != plain.jobs()[0].digest()

    def test_hybrid_gets_default_groups(self):
        spec = spec_with(scheme="HYBRID_SHARING")
        assert spec.scenario.nodes[0].groups == ((0, 1, 2), (3, 4, 5), (6, 7, 8))

    def test_custom_workload(self):
        spec = spec_with(workload=[
            {"peak_mbps": 16, "avg_mbps": 2, "bucket_kb": 50, "token_mbps": 2},
            {"peak_mbps": 40, "avg_mbps": 16, "bucket_kb": 50, "token_mbps": 2,
             "conformant": False, "burst_kb": 250},
        ])
        first, second = (routed.spec for routed in spec.scenario.flows)
        assert first.conformant
        assert not second.conformant
        assert spec.conformant_ids == (0,)

    def test_custom_workload_missing_key(self):
        with pytest.raises(ConfigurationError):
            spec_with(workload=[{"peak_mbps": 16}])


TANDEM = {"name": "net", "network": "tandem", "hops": 2, "sim_time": 0.5, "seeds": [1, 2]}


def inline(scenario_dict):
    """An entry carrying its scenario inline: it takes no parameters."""
    return {"name": "net", "network": scenario_dict, "seeds": [1, 2]}


class TestNetworkForm:
    """The ``"network"`` input form parses into the same ScenarioSpec."""

    def test_named_tandem(self):
        spec = ScenarioSpec.from_dict(TANDEM)
        assert len(spec.scenario.links) == 2 and spec.scenario.churn is not None
        assert spec.metrics == ("delivered", "blocking")
        assert [job.scenario.seed for job in spec.jobs()] == [1, 2]

    def test_inline_scenario_equals_the_named_one(self):
        named = ScenarioSpec.from_dict(TANDEM)
        inlined = ScenarioSpec.from_dict(inline(named.scenario.to_dict()))
        assert inlined == named
        assert [j.digest() for j in inlined.jobs()] == [j.digest() for j in named.jobs()]

    @pytest.mark.parametrize(
        "key, value, read",
        [
            ("arrival_rate", 2.0, lambda scenario: scenario.churn.arrival_rate),
            ("mean_holding", 1.5, lambda scenario: scenario.churn.mean_holding),
            ("delay_histograms", True, lambda scenario: scenario.delay_histograms),
        ],
    )
    def test_tandem_parameters_are_honoured(self, key, value, read):
        plain = ScenarioSpec.from_dict(TANDEM)
        changed = ScenarioSpec.from_dict(dict(TANDEM, **{key: value}))
        assert read(changed.scenario) == value != read(plain.scenario)
        assert changed.jobs()[0].digest() != plain.jobs()[0].digest()

    @pytest.mark.parametrize(
        "raw, message",
        [
            (dict(TANDEM, buffer_mb=1.0), "unknown spec key 'buffer_mb'"),
            (dict(TANDEM, workload="table1"), "unknown spec key 'workload'"),
            (dict(TANDEM, hops=2.5), "'hops' must be an integer"),
            (dict(TANDEM, churn="yes"), "'churn' must be true or false"),
            (dict(inline({}), hops=2), "unknown spec key 'hops'"),
        ],
    )
    def test_tandem_keys_are_typed_or_refused(self, raw, message):
        with pytest.raises(ConfigurationError, match=message):
            ScenarioSpec.from_dict(raw)

    def test_the_tandem_default_matches_the_sweep_cell(self):
        """One table, one default: the same experiment is one job."""
        from repro.experiments.sweep import SweepAxis, SweepSpec

        entry = ScenarioSpec.from_dict(TANDEM)
        sweep = SweepSpec(
            name="same",
            kind="network",
            axes=(SweepAxis("seed", (1, 2)),),
            base={"hops": 2, "sim_time": 0.5},
        )
        assert not entry.scenario.delay_histograms
        assert [job.digest() for job in entry.jobs()] == [
            job.digest() for _params, job in sweep.jobs()
        ]

    def test_unknown_named_network(self):
        with pytest.raises(ConfigurationError, match="tandem"):
            ScenarioSpec.from_dict(dict(TANDEM, network="fat-tree"))

    def test_typoed_scheme_in_an_inline_scenario_names_the_valid_ones(self):
        raw = ScenarioSpec.from_dict(TANDEM).scenario.to_dict()
        raw["nodes"][0]["scheme"] = "FIFO_TRESHOLD"
        with pytest.raises(ConfigurationError, match="FIFO_TRESHOLD.*FIFO_THRESHOLD"):
            ScenarioSpec.from_dict(inline(raw))

    def test_one_link_metric_on_a_multi_link_scenario_rejected_early(self):
        with pytest.raises(ConfigurationError, match="2 links"):
            ScenarioSpec.from_dict(dict(TANDEM, metrics=["utilization"]))

    def test_runs_through_the_same_run_spec(self):
        results = run_spec(ScenarioSpec.from_dict(dict(TANDEM, metrics=["events", "delivered"])))
        assert results["events"].n == 2 and results["delivered"].mean > 0


class TestRunSpec:
    def test_produces_all_metrics(self):
        results = run_spec(spec_with())
        assert set(results) == set(BASE["metrics"])
        assert 0.0 < results["utilization"].mean <= 100.0

    def test_multiple_seeds_give_ci(self):
        results = run_spec(spec_with(seeds=[1, 2]))
        assert results["utilization"].n == 2

    def test_deterministic(self):
        first = run_spec(spec_with())
        second = run_spec(spec_with())
        assert first["utilization"].mean == second["utilization"].mean

    def test_hybrid_spec_runs(self):
        results = run_spec(spec_with(scheme="HYBRID_SHARING"))
        assert results["utilization"].mean > 0.0


class TestLoadSpecs:
    def test_single_object(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(BASE))
        specs = load_specs(path)
        assert len(specs) == 1
        assert specs[0].name == "demo"

    def test_list_of_specs(self, tmp_path):
        second = dict(BASE, name="other", scheme="WFQ_SHARING")
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([BASE, second]))
        specs = load_specs(path)
        assert [spec.name for spec in specs] == ["demo", "other"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ConfigurationError):
            load_specs(path)

    def test_both_input_forms_mix_in_one_file(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([BASE, TANDEM]))
        one_link, tandem = load_specs(path)
        assert type(one_link) is type(tandem) is ScenarioSpec
        assert (len(one_link.scenario.links), len(tandem.scenario.links)) == (1, 2)

    def test_unreadable_file_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read spec file"):
            load_specs(tmp_path / "missing.json")

    def test_invalid_json_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"name": "demo", ')
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_specs(path)


class TestDigestsHeld:
    """Job digests captured before spec entries, sweep cells and figures
    shared one parameter→scenario translation."""

    def test_committed_one_link_entries(self):
        digests = [
            job.digest()[:16]
            for spec in load_specs("examples/specs/table1_thresholds.json")
            for job in spec.jobs()
        ]
        assert digests == [
            "df46e03cd1112ed0", "1d8f216e970c89b9", "7052bcf18302f871", "35991a329ede7a2f",
        ]

    def test_committed_sweep_cells(self):
        from repro.experiments.sweep import load_sweep

        spec = load_sweep("examples/sweeps/ci_grid.json")
        # The sweep digest moved once when the "constraints" key left the
        # canonical form; the job digests below did not.
        assert spec.digest()[:16] == "f9af3355181fe69c"
        cells = hashlib.sha256(
            "".join(job.digest() for _params, job in spec.jobs()).encode("ascii")
        )
        assert cells.hexdigest()[:16] == "554f7a8039d74dda"


class TestCLIRun:
    def test_run_target(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(BASE))
        assert main(["run", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "utilization" in out

    def test_run_requires_spec(self, capsys):
        from repro.__main__ import main

        assert main(["run"]) == 2
        assert "--spec" in capsys.readouterr().err
