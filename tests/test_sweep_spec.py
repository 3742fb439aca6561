"""Sweep DSL: validation, lazy expansion, constraints, round-trips."""

import itertools
import json
import tracemalloc

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign.job import ScenarioJob
from repro.experiments.sweep import (
    SWEEP_SPEC_SCHEMA,
    SweepAxis,
    SweepSpec,
    load_sweep,
)
from repro.experiments.sweep.spec import SweepConstraint


def scenario_spec(**overrides):
    kwargs = dict(
        name="unit",
        axes=(
            SweepAxis("scheme", ("FIFO_NONE", "FIFO_THRESHOLD")),
            SweepAxis("buffer_mb", (0.5, 1.0)),
            SweepAxis("seed", (1, 2)),
        ),
        base={"sim_time": 0.5, "warmup": 0.1},
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_spec(name="")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep kind"):
            scenario_spec(kind="figure")

    def test_axis_needs_values(self):
        with pytest.raises(ConfigurationError, match="no values"):
            SweepAxis("seed", ())

    def test_axis_rejects_duplicate_values(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            SweepAxis("seed", (1, 1))

    def test_axis_rejects_non_scalar_values(self):
        with pytest.raises(ConfigurationError, match="JSON scalar"):
            SweepAxis("seed", ([1],))

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate axis"):
            scenario_spec(
                axes=(SweepAxis("seed", (1,)), SweepAxis("seed", (2,)))
            )

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario parameter"):
            scenario_spec(axes=(SweepAxis("bandwidth", (1,)),))
        # The removed event-queue selector is an unknown parameter like
        # any other, as an axis or a base value, for either kind.
        with pytest.raises(ConfigurationError, match="unknown scenario parameter"):
            scenario_spec(axes=(SweepAxis("equeue", ("heap",)),))
        with pytest.raises(ConfigurationError, match="unknown scenario parameter"):
            scenario_spec(base={"sim_time": 0.5, "equeue": "heap"})
        with pytest.raises(ConfigurationError, match="unknown network parameter"):
            SweepSpec(
                name="net",
                kind="network",
                axes=(SweepAxis("seed", (1,)),),
                base={"equeue": "heap"},
            )

    def test_base_and_axis_conflict_rejected(self):
        with pytest.raises(ConfigurationError, match="both a base value"):
            scenario_spec(base={"sim_time": 0.5, "seed": 3})

    def test_unknown_scheme_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            scenario_spec(axes=(SweepAxis("scheme", ("FIFO_MAGIC",)),))

    def test_unknown_workload_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            scenario_spec(base={"workload": "table9"})

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            scenario_spec(axes=(SweepAxis("seed", (1.5,)),))

    def test_bad_metric_rejected_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown metric"):
            scenario_spec(metrics=("latency",))

    def test_network_metrics_validated(self):
        # One grammar for both kinds: a one-link metric is refused
        # because the default tandem has three links, not by vocabulary.
        with pytest.raises(ConfigurationError, match="reads one link.*3 links"):
            SweepSpec(
                name="net",
                kind="network",
                axes=(SweepAxis("seed", (1,)),),
                metrics=("utilization",),
            )
        one_hop = SweepSpec(
            name="net",
            kind="network",
            axes=(SweepAxis("seed", (1,)),),
            base={"hops": 1},
            metrics=("utilization", "delivered"),
        )
        assert one_hop.metrics == ("utilization", "delivered")

    @pytest.mark.parametrize(
        "kind, axis, base, message",
        [
            ("scenario", ("seed", (True, 2)), {}, "'seed' must be an integer"),
            ("scenario", ("buffer_mb", ("big",)), {}, "'buffer_mb' must be a number"),
            ("scenario", ("seed", (1,)), {"buffer_mb": "big"}, "must be a number"),
            ("scenario", ("seed", (1,)), {"sim_time": None}, "must be a number"),
            ("scenario", ("seed", (1,)), {"delay_histograms": 1}, "must be true or false"),
            ("scenario", ("max_events", (2.5,)), {}, "must be an integer"),
            ("network", ("hops", (2.5,)), {}, "'hops' must be an integer"),
            ("network", ("seed", (1,)), {"churn": "yes"}, "'churn' must be true or false"),
            ("network", ("arrival_rate", (True,)), {}, "must be a number"),
        ],
    )
    def test_values_are_typed_at_the_describe_stage(self, kind, axis, base, message):
        with pytest.raises(ConfigurationError, match=message):
            SweepSpec(name="typed", kind=kind, axes=(SweepAxis(*axis),), base=base)

    def test_integers_are_numbers_and_none_only_where_it_is_the_default(self):
        spec = scenario_spec(base={"sim_time": 1, "warmup": None, "max_events": None})
        [job] = [job for _params, job in list(spec.jobs())[:1]]
        assert job.scenario.sim_time == 1.0 and job.scenario.warmup is None

    def test_constraint_on_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            scenario_spec(
                constraints=(SweepConstraint("bandwidth", "==", 1),)
            )

    def test_constraint_bad_op_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown constraint op"):
            SweepConstraint("seed", "~=", 1)

    def test_membership_op_needs_list(self):
        with pytest.raises(ConfigurationError, match="needs a list"):
            SweepConstraint("seed", "in", 1)

    @pytest.mark.parametrize(
        "constraint",
        [SweepConstraint("warmup", "<", 1.0), SweepConstraint("scheme", "<", 1.0)],
        ids=["none-operand", "name-operand"],
    )
    def test_ordered_constraint_needs_numbers_at_the_describe_stage(self, constraint):
        # Expanding either one compared None or a scheme name with a float:
        # a bare TypeError in every worker.
        with pytest.raises(ConfigurationError, match=f"constraint .*{constraint.param}"):
            SweepSpec(
                name="ordered",
                axes=(SweepAxis("seed", (1, 2)),),
                constraints=(constraint,),
            )
        # Where every cell sets the parameter to a number, the order holds.
        spec = scenario_spec(constraints=(SweepConstraint("warmup", "<", 1.0),))
        assert spec.count() == spec.total_cells()

    @pytest.mark.parametrize(
        "constraint",
        [
            SweepConstraint("scheme", "==", "FIFO_NON"),
            SweepConstraint("scheme", "not-in", ["FIFO_NONE", "FIFO_NON"]),
        ],
        ids=["value", "member"],
    )
    def test_constraint_value_is_typed_like_its_parameter(self, constraint):
        # A misspelt scheme used to prune every cell without a word.
        with pytest.raises(ConfigurationError, match="constraint .*'FIFO_NON'"):
            scenario_spec(constraints=(constraint,))


class TestExpansion:
    def test_row_major_declared_order(self):
        spec = scenario_spec()
        cells = list(spec.cells())
        assert len(cells) == 8 == spec.total_cells() == spec.count()
        expected = [
            (scheme, buffer_mb, seed)
            for scheme in ("FIFO_NONE", "FIFO_THRESHOLD")
            for buffer_mb in (0.5, 1.0)
            for seed in (1, 2)
        ]
        got = [(c["scheme"], c["buffer_mb"], c["seed"]) for c in cells]
        assert got == expected

    def test_base_overrides_defaults_in_every_cell(self):
        for cell in scenario_spec().cells():
            assert cell["sim_time"] == 0.5
            assert cell["warmup"] == 0.1
            assert cell["workload"] == "table1"  # untouched default

    def test_value_constraint_prunes(self):
        spec = scenario_spec(
            constraints=(SweepConstraint("buffer_mb", ">=", 1.0),)
        )
        assert spec.count() == 4
        assert all(c["buffer_mb"] >= 1.0 for c in spec.cells())

    def test_cross_parameter_constraint(self):
        spec = scenario_spec(
            axes=(
                SweepAxis("buffer_mb", (0.5, 1.0)),
                SweepAxis("headroom_mb", (0.25, 0.5, 1.0)),
                SweepAxis("seed", (1,)),
            ),
            constraints=(
                SweepConstraint("headroom_mb", "<", None, other="buffer_mb"),
            ),
        )
        for cell in spec.cells():
            assert cell["headroom_mb"] < cell["buffer_mb"]
        assert spec.count() == 3

    def test_membership_constraint(self):
        spec = scenario_spec(
            constraints=(SweepConstraint("scheme", "in", ["FIFO_NONE"]),)
        )
        assert {c["scheme"] for c in spec.cells()} == {"FIFO_NONE"}

    def test_scenario_jobs_are_campaign_jobs(self):
        spec = scenario_spec()
        pairs = list(spec.jobs())
        assert len(pairs) == 8
        digests = set()
        for params, job in pairs:
            assert isinstance(job, ScenarioJob)
            assert job.scenario.is_single_port
            assert job.scenario.nodes[0].scheme.name == params["scheme"]
            assert job.scenario.seed == params["seed"]
            digests.add(job.digest())
        assert len(digests) == 8  # all distinct cells

    def test_hybrid_scheme_gets_default_groups(self):
        spec = scenario_spec(axes=(SweepAxis("scheme", ("HYBRID_THRESHOLD",)),))
        [(_params, job)] = [next(iter(spec.jobs()))]
        assert job.scenario.nodes[0].groups is not None

    def test_network_jobs_carry_the_axes(self):
        spec = SweepSpec(
            name="net",
            kind="network",
            axes=(
                SweepAxis("arrival_rate", (4.0, 8.0)),
                SweepAxis("seed", (1,)),
            ),
            base={"hops": 2, "sim_time": 0.5, "delay_histograms": False},
        )
        pairs = list(spec.jobs())
        assert len(pairs) == 2
        for params, job in pairs:
            assert isinstance(job, ScenarioJob)
            assert job.scenario.churn.arrival_rate == params["arrival_rate"]
            assert len(job.scenario.links) == 2

    def test_group_key_folds_out_seed(self):
        spec = scenario_spec()
        keys = {spec.group_key(params) for params in spec.cells()}
        assert len(keys) == 4  # 8 cells, 2 seeds per group
        assert all("seed" not in json.loads(key) for key in keys)


class TestRoundTrip:
    def test_dict_round_trip_preserves_digest(self):
        spec = scenario_spec(
            constraints=(SweepConstraint("buffer_mb", ">=", 0.5),),
            metrics=("utilization", "loss:conformant"),
        )
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_schema_tag_present_and_pinned(self):
        raw = scenario_spec().to_dict()
        assert raw["schema"] == SWEEP_SPEC_SCHEMA
        raw["schema"] = "repro-sweep-spec-v0"
        with pytest.raises(ConfigurationError, match="schema mismatch"):
            SweepSpec.from_dict(raw)

    def test_digest_changes_with_any_field(self):
        base = scenario_spec()
        renamed = scenario_spec(name="other")
        assert base.digest() != renamed.digest()

    def test_load_sweep_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(scenario_spec().to_dict()))
        assert load_sweep(path) == scenario_spec()

    def test_load_sweep_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="one JSON object"):
            load_sweep(path)
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_sweep(tmp_path / "missing.json")

    def test_committed_example_loads(self):
        spec = load_sweep("examples/sweeps/ci_grid.json")
        assert spec.count() == 12


class TestLaziness:
    """Acceptance criterion: peak memory independent of grid size."""

    @staticmethod
    def _grid(cells_per_axis):
        return SweepSpec(
            name="lazy",
            axes=(
                SweepAxis("seed", tuple(range(1, cells_per_axis + 1))),
                SweepAxis(
                    "buffer_mb",
                    tuple(0.25 + 0.01 * i for i in range(cells_per_axis)),
                ),
            ),
            base={"sim_time": 0.5},
        )

    @staticmethod
    def _peak_iterating(spec):
        tracemalloc.start()
        try:
            count = 0
            for _params in spec.cells():
                count += 1
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return count, peak

    def test_ten_thousand_cells_expand_flat(self):
        small = self._grid(10)  # 100 cells
        large = self._grid(100)  # 10,000 cells
        count_small, peak_small = self._peak_iterating(small)
        count_large, peak_large = self._peak_iterating(large)
        assert count_small == 100
        assert count_large == 10_000
        # 100x the cells must not cost anywhere near 100x the memory;
        # the generator holds one cell at a time (the only O(n) term is
        # the axis value tuples themselves, a few KB here).
        assert peak_large < 3 * peak_small + 64_000

    def test_jobs_stream_without_materializing(self):
        spec = self._grid(100)
        jobs = spec.jobs()
        first = list(itertools.islice(jobs, 3))
        assert len(first) == 3
        assert all(isinstance(job, ScenarioJob) for _p, job in first)

    def test_count_does_not_materialize(self):
        assert self._grid(100).total_cells() == 10_000
