"""Property-based tests: scenario-spec parsing over random inputs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.schemes import Scheme
from repro.experiments.spec import PARAMETERS, ScenarioSpec
from repro.experiments.sweep import SweepAxis, SweepSpec
from repro.units import kbytes, mbps, mbytes

flow_dicts = st.builds(
    lambda peak, ratio, bucket, token, conformant: {
        "peak_mbps": peak,
        "avg_mbps": peak * ratio,
        "bucket_kb": bucket,
        "token_mbps": token,
        "conformant": conformant,
    },
    peak=st.floats(min_value=1.0, max_value=40.0, allow_nan=False),
    ratio=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    bucket=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    token=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    conformant=st.booleans(),
)

spec_dicts = st.builds(
    lambda flows, buffer_mb, seeds, headroom_mb: {
        "name": "prop",
        "scheme": "FIFO_THRESHOLD",
        "buffer_mb": buffer_mb,
        "workload": flows,
        "seeds": seeds,
        "headroom_mb": headroom_mb,
        "metrics": ["utilization", "loss:conformant"],
    },
    flows=st.lists(flow_dicts, min_size=1, max_size=6),
    buffer_mb=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                   max_size=3, unique=True),
    headroom_mb=st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
)


class TestSpecParsing:
    @given(raw=spec_dicts)
    @settings(max_examples=100, deadline=None)
    def test_units_convert_correctly(self, raw):
        spec = ScenarioSpec.from_dict(raw)
        node = spec.scenario.nodes[0]
        assert node.buffer_size == mbytes(raw["buffer_mb"])
        assert node.headroom == mbytes(raw["headroom_mb"])
        for routed, flow_raw in zip(spec.scenario.flows, raw["workload"]):
            flow = routed.spec
            assert flow.peak_rate == mbps(flow_raw["peak_mbps"])
            assert flow.bucket == kbytes(flow_raw["bucket_kb"])
            assert flow.token_rate == mbps(flow_raw["token_mbps"])
            assert flow.conformant == flow_raw["conformant"]

    @given(raw=spec_dicts)
    @settings(max_examples=100, deadline=None)
    def test_flow_ids_sequential_and_conformant_set_consistent(self, raw):
        spec = ScenarioSpec.from_dict(raw)
        flows = [routed.spec for routed in spec.scenario.flows]
        assert [flow.flow_id for flow in flows] == list(range(len(flows)))
        assert set(spec.conformant_ids) == {
            flow.flow_id for flow in flows if flow.conformant
        }

    @given(raw=spec_dicts)
    @settings(max_examples=100, deadline=None)
    def test_parsing_is_idempotent(self, raw):
        first = ScenarioSpec.from_dict(raw)
        second = ScenarioSpec.from_dict(raw)
        assert first == second


#: Paper-unit parameters of a one-link experiment over a named workload:
#: what a spec entry and a sweep cell can both say.
named_points = st.fixed_dictionaries(
    {
        "workload": st.sampled_from(["table1", "table2"]),
        "scheme": st.sampled_from(sorted(Scheme.__members__)),
        "buffer_mb": st.one_of(
            st.integers(min_value=1, max_value=8),
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        ),
    },
    optional={
        "sim_time": st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
        "warmup": st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.5)),
        "link_mbps": st.floats(min_value=10.0, max_value=100.0, allow_nan=False),
        "headroom_mb": st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
        "delay_histograms": st.booleans(),
        "max_events": st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
    },
)
seed_lists = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=1, max_size=3, unique=True
)


class TestOneTranslation:
    @given(point=named_points, seeds=seed_lists)
    @settings(max_examples=100, deadline=None)
    def test_a_spec_entry_and_a_sweep_cell_are_the_same_job(self, point, seeds):
        entry = ScenarioSpec.from_dict({"name": "prop", "seeds": seeds, **point})
        sweep = SweepSpec(name="prop", axes=(SweepAxis("seed", seeds),), base=point)
        assert [job.digest() for job in entry.jobs()] == [
            job.digest() for _params, job in sweep.jobs()
        ]

    @given(
        point=named_points,
        typo=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_key_is_a_parameter_or_an_error(self, point, typo):
        known = {*PARAMETERS["scenario"], "groups", "name", "seeds", "metrics", "network"}
        if typo in known - {"seed"}:
            return
        with pytest.raises(ConfigurationError, match="unknown spec key"):
            ScenarioSpec.from_dict({"name": "prop", **point, typo: 1})
        # ``seed`` is this sweep's axis, so a base ``seed`` is refused as a
        # collision rather than as an unknown name.
        message = (
            "both a base value and an axis" if typo == "seed" else "unknown scenario parameter"
        )
        with pytest.raises(ConfigurationError, match=message):
            SweepSpec(name="prop", axes=(SweepAxis("seed", (1,)),), base={**point, typo: 1})
