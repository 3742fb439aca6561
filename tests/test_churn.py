"""Dynamic flow churn: determinism, route-wide admission, accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fabric import (
    ChurnSpec,
    LinkSpec,
    NetworkScenario,
    NodeSpec,
    RoutedFlow,
    run_fabric,
)
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.schemes import Scheme
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes

LINK = mbps(48.0)
BUF = mbytes(1.0)


def conformant(flow_id):
    return FlowSpec(
        flow_id=flow_id,
        peak_rate=mbps(8.0),
        avg_rate=mbps(2.0),
        bucket=kbytes(50.0),
        token_rate=mbps(2.0),
        conformant=True,
        mean_burst=kbytes(50.0),
    )


def churn_scenario(
    mean_holding,
    *,
    arrival_rate=50.0,
    sim_time=2.0,
    seed=13,
    scheme=Scheme.FIFO_THRESHOLD,
    flows=(),
):
    """One 48 Mbit/s link under a churn-only (or churn-plus-static) load.

    With the conformant (50 KB, 2 Mbit/s) template, the FIFO admission
    region of a 1 MB buffer holds about ten concurrent flows.
    """
    return NetworkScenario(
        nodes=(NodeSpec("a", scheme, BUF), NodeSpec("b")),
        links=(LinkSpec("a", "b", LINK),),
        flows=tuple(flows),
        churn=ChurnSpec(
            arrival_rate=arrival_rate,
            mean_holding=mean_holding,
            templates=(conformant(0),),
            routes=(("a", "b"),),
        ),
        sim_time=sim_time,
        seed=seed,
    )


class TestDeterminism:
    def test_same_seed_reproduces_report_and_event_count(self):
        scenario = demo_tandem(hops=2, sim_time=4.0, seed=11)
        first = run_fabric(scenario)
        second = run_fabric(scenario)
        assert first.churn is not None
        assert first.churn.to_dict() == second.churn.to_dict()
        assert first.events_processed == second.events_processed

    def test_different_seed_changes_the_arrival_pattern(self):
        a = run_fabric(demo_tandem(hops=2, sim_time=4.0, seed=11)).churn
        b = run_fabric(demo_tandem(hops=2, sim_time=4.0, seed=12)).churn
        assert a.to_dict() != b.to_dict()

    def test_churn_does_not_perturb_static_sample_paths(self):
        # The churn seed child is spawned after the static flows', so the
        # traffic each static source offers at its entry hop must be
        # identical with churn on or off (drops downstream may differ).
        with_churn = run_fabric(demo_tandem(hops=2, sim_time=4.0, seed=5))
        without = run_fabric(demo_tandem(hops=2, sim_time=4.0, seed=5, churn=False))
        entry = "n0->n1"
        for flow_id in (0, 100, 101):
            assert (
                with_churn.links[entry].flow_stats[flow_id].offered_packets
                == without.links[entry].flow_stats[flow_id].offered_packets
            )


class TestBlockingAccounting:
    def test_arrivals_split_exactly_into_outcomes(self):
        report = run_fabric(demo_tandem(hops=3, sim_time=8.0, seed=0)).churn
        assert report.arrivals > 0
        assert report.accepted > 0
        assert report.blocked > 0
        assert report.arrivals == report.accepted + report.blocked
        assert report.blocked == report.blocked_bandwidth + report.blocked_buffer
        assert 0.0 < report.blocking_probability < 1.0

    def test_per_node_counts_sum_to_the_global_split(self):
        report = run_fabric(demo_tandem(hops=3, sim_time=8.0, seed=0)).churn
        bandwidth = sum(
            counts.get("bandwidth-limited", 0) for counts in report.per_node.values()
        )
        buffer = sum(
            counts.get("buffer-limited", 0) for counts in report.per_node.values()
        )
        assert bandwidth == report.blocked_bandwidth
        assert buffer == report.blocked_buffer

    def test_lifecycle_conservation(self):
        report = run_fabric(demo_tandem(hops=2, sim_time=6.0, seed=4)).churn
        assert report.departures + report.active_at_end == report.accepted

    def test_report_round_trips(self):
        from repro.experiments.fabric import ChurnReport

        report = run_fabric(demo_tandem(hops=2, sim_time=4.0, seed=2)).churn
        assert ChurnReport.from_dict(report.to_dict()) == report

    def test_unknown_rejections_counted_separately(self):
        from repro.experiments.fabric import ChurnReport

        report = ChurnReport(
            arrivals=5, accepted=2, blocked_bandwidth=1, blocked_buffer=1,
            blocked_unknown=1,
        )
        assert report.blocked == 3
        assert report.to_dict()["blocked_unknown"] == 1
        assert ChurnReport.from_dict(report.to_dict()) == report

    def test_unclassified_rejection_is_not_charged_to_buffer(self):
        from repro.experiments.fabric.churn import FlowChurnProcess

        process = FlowChurnProcess.__new__(FlowChurnProcess)
        from repro.experiments.fabric import ChurnReport

        process.report = ChurnReport()
        process._record_rejection("a", None)
        assert process.report.blocked_unknown == 1
        assert process.report.blocked_buffer == 0
        assert process.report.blocked_bandwidth == 0
        assert process.report.per_node["a"] == {"unknown": 1}


class TestAdmissionRelease:
    def test_departures_release_capacity_for_later_arrivals(self):
        # ~100 arrivals against a ~10-flow region.  With 20 ms holding
        # the region keeps draining and almost everyone gets in; with
        # 1000 s holding the first ~10 fill it for the whole run.
        quick = run_fabric(churn_scenario(0.02)).churn
        squatters = run_fabric(churn_scenario(1000.0)).churn
        assert quick.departures > 0
        assert squatters.departures == 0
        assert quick.accepted > 2 * squatters.accepted
        assert squatters.blocked_buffer > 0

    def test_saturated_link_blocks_buffer_limited_at_the_entry_node(self):
        report = run_fabric(churn_scenario(1000.0)).churn
        assert set(report.per_node) == {"a"}
        assert report.per_node["a"].get("buffer-limited", 0) == report.blocked


class TestConfigurationGuards:
    def test_overbooked_static_population_is_refused(self):
        flows = tuple(
            RoutedFlow(spec=conformant(i), route=("a", "b")) for i in range(12)
        )
        with pytest.raises(ConfigurationError, match="does not fit the admission"):
            run_fabric(churn_scenario(1.0, flows=flows))

    def test_non_fifo_scheme_on_churn_route_is_refused(self):
        flows = (RoutedFlow(spec=conformant(1), route=("a", "b")),)
        with pytest.raises(ConfigurationError, match="FIFO-family"):
            run_fabric(
                churn_scenario(1.0, scheme=Scheme.WFQ_THRESHOLD, flows=flows)
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"arrival_rate": 0.0},
            {"mean_holding": -1.0},
            {"templates": ()},
            {"routes": ()},
            {"routes": (("a",),)},
            {"admission": "oracle"},
        ],
        ids=["rate", "holding", "templates", "routes", "short-route", "admission"],
    )
    def test_invalid_churn_spec_rejected(self, kwargs):
        base = dict(
            arrival_rate=6.0,
            mean_holding=1.0,
            templates=(conformant(0),),
            routes=(("a", "b"),),
        )
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            ChurnSpec(**base)
