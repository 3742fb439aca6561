"""Live conformance monitor: bounds honoured in vivo, violated in vitro.

Two acceptance runs frame the unit tests: the reference tandem with
churn **and** live reclamation must finish with a clean report (the
paper's guarantees hold under the most dynamic configuration we can
build), while the deliberately undersized tandem must produce
conformant-drop errors and a failing report.  The unit tests then pin
each check in isolation with synthetic events, and a property shows
that a path over the sum of its hop bounds is always caught at a hop.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.fabric import run_fabric
from repro.experiments.fabric.demo import demo_tandem, undersized_tandem
from repro.obs.events import (
    EVENT_TYPES,
    DepartEvent,
    DropEvent,
    EnqueueEvent,
    HeadroomEvent,
    HeapCompactEvent,
    PoolEvent,
    ReprovisionEvent,
    SampleEvent,
    ThresholdCrossEvent,
    ViolationEvent,
)
from repro.obs.monitor import (
    _ABS_SLACK,
    CHECKS,
    ConformanceMonitor,
    MonitorReport,
    Violation,
)
from repro.obs.sink import RingSink
from repro.obs.timeline import Timeline
from repro.sim.engine import Simulator
from tests.conftest import examples


def sample_violation(**overrides):
    base = dict(
        check="hop-delay",
        severity="error",
        time=1.25,
        flow_id=3,
        node="n0->n1",
        observed=0.2,
        bound=0.1,
        window=0.05,
        message="per-hop delay exceeded analytic bound",
    )
    base.update(overrides)
    return Violation(**base)


class TestAcceptance:
    def test_monitored_churn_reclamation_tandem_is_conformant(self):
        monitor = ConformanceMonitor()
        scenario = demo_tandem(
            hops=2, seed=0, churn=True, reclamation=True, delay_histograms=False
        )
        result = run_fabric(scenario, monitor=monitor)
        report = result.monitor_report
        assert report is not None
        assert report.ok, report.render()
        # Every check family actually fired — a clean report from a
        # monitor that evaluated nothing would prove nothing.
        for name in CHECKS:
            assert report.checks.get(name, 0) > 0, name
        assert report.sweeps > 0

    def test_monitored_churnless_tandem_is_conformant(self):
        monitor = ConformanceMonitor()
        timeline = Timeline()
        scenario = demo_tandem(
            hops=2, sim_time=0.5, churn=False, delay_histograms=False
        )
        result = run_fabric(scenario, timeline=timeline, monitor=monitor)
        report = result.monitor_report
        assert report.ok, report.render()
        assert report.events_seen > 0
        assert timeline.summary().series

    def test_undersized_tandem_violates_conformant_drop(self):
        monitor = ConformanceMonitor()
        result = run_fabric(undersized_tandem(hops=2, seed=0), monitor=monitor)
        report = result.monitor_report
        assert not report.ok
        drops = [v for v in report.violations if v.check == "conformant-drop"]
        assert drops
        assert all(v.severity == "error" for v in drops)


class TestValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConformanceMonitor(interval=0.0)

    def test_tolerance_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            ConformanceMonitor(tolerance=-1e-9)

    def test_max_violations_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConformanceMonitor(max_violations=0)

    def test_hop_bound_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConformanceMonitor().set_hop_bound("n0->n1", 0.0)

    # A non-finite setting would be accepted and then check nothing: an
    # infinite interval never sweeps, a NaN tolerance or bound makes every
    # comparison false, and a NaN interval fails only at install.
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_interval_must_be_finite(self, value):
        with pytest.raises(ConfigurationError):
            ConformanceMonitor(interval=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_tolerance_must_be_finite(self, value):
        with pytest.raises(ConfigurationError):
            ConformanceMonitor(tolerance=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_hop_bound_must_be_finite(self, value):
        with pytest.raises(ConfigurationError):
            ConformanceMonitor().set_hop_bound("n0->n1", value)

    def test_double_install_rejected(self):
        monitor = ConformanceMonitor()
        sim = Simulator()
        monitor.install(sim, 1.0)
        with pytest.raises(ConfigurationError):
            monitor.install(sim, 1.0)

    def test_install_until_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ConformanceMonitor().install(Simulator(), -1.0)


class TestEventChecks:
    def test_drop_on_watched_flow_is_a_violation(self):
        monitor = ConformanceMonitor()
        monitor.watch_flow(7)
        monitor.emit(DropEvent(time=0.5, flow_id=7, size=500.0, reason="threshold"))
        assert len(monitor.violations) == 1
        violation = monitor.violations[0]
        assert violation.check == "conformant-drop"
        assert violation.severity == "error"
        assert "threshold" in violation.message

    def test_drop_on_unwatched_flow_is_counted_not_flagged(self):
        monitor = ConformanceMonitor()
        monitor.watch_flow(7)
        monitor.unwatch_flow(7)
        monitor.emit(DropEvent(time=0.5, flow_id=7, size=500.0, reason="threshold"))
        assert monitor.violations == []
        assert monitor.finalize().checks["conformant-drop"] == 1

    def test_hop_delay_checked_against_bound(self):
        monitor = ConformanceMonitor()
        monitor.set_hop_bound("n0->n1", 0.1)
        ok = DepartEvent(time=1.0, flow_id=2, size=500.0, delay=0.1, node="n0->n1")
        bad = DepartEvent(time=2.0, flow_id=2, size=500.0, delay=0.2, node="n0->n1")
        elsewhere = DepartEvent(time=3.0, flow_id=2, size=500.0, delay=9.0, node="x")
        for event in (ok, bad, elsewhere):
            monitor.emit(event)
        assert [v.check for v in monitor.violations] == ["hop-delay"]
        assert monitor.violations[0].observed == 0.2
        # Only departures at bounded hops are evaluated.
        assert monitor.finalize().checks["hop-delay"] == 2

    def test_occupancy_sweep_flags_excess(self):
        monitor = ConformanceMonitor()
        state = {"occ": 900.0}
        monitor.add_occupancy_check("n0->n1", 1, lambda: state["occ"], lambda: 1000.0)
        monitor.sweep_once(0.5)
        assert monitor.violations == []
        state["occ"] = 1100.0
        monitor.sweep_once(1.0)
        assert [v.check for v in monitor.violations] == ["occupancy-threshold"]
        assert monitor.violations[0].window == monitor.interval

    def test_reprovision_shrink_tolerated_while_draining(self):
        monitor = ConformanceMonitor()
        state = {"occ": 1800.0, "thr": 1000.0}
        monitor.add_occupancy_check(
            "n0->n1", 1, lambda: state["occ"], lambda: state["thr"]
        )
        # Live shrink 2000 -> 1000 while occupancy sits at 1800: the
        # old threshold becomes a drain cap, not a violation.
        monitor.emit(
            ReprovisionEvent(
                time=0.4, flow_id=1, threshold=1000.0, previous=2000.0, node="n0->n1"
            )
        )
        monitor.sweep_once(0.5)
        assert monitor.violations == []
        # The cap ratchets down with the observed drain: rising back
        # above the last observation is a genuine violation.
        state["occ"] = 1500.0
        monitor.sweep_once(0.6)
        assert monitor.violations == []
        state["occ"] = 1700.0
        monitor.sweep_once(0.7)
        assert [v.check for v in monitor.violations] == ["occupancy-threshold"]

    def test_drop_occupancy_checks_releases_flow(self):
        monitor = ConformanceMonitor()
        monitor.add_occupancy_check("n0->n1", 1, lambda: 9999.0, lambda: 1.0)
        monitor.drop_occupancy_checks(1)
        monitor.sweep_once(0.5)
        assert monitor.violations == []

    def test_max_violations_suppresses_overflow(self):
        monitor = ConformanceMonitor(max_violations=3)
        monitor.watch_flow(1)
        for i in range(10):
            monitor.emit(
                DropEvent(time=float(i), flow_id=1, size=100.0, reason="threshold")
            )
        assert len(monitor.violations) == 3
        assert monitor.suppressed == 7
        report = monitor.finalize()
        # The check counter keeps the true magnitude either way.
        assert report.checks["conformant-drop"] == 10
        # ... and so does the report, in the form ``--json`` prints.
        printed = report.to_dict()
        assert printed["suppressed"] == 7
        assert printed["checks"]["conformant-drop"] == 10
        assert [v["time"] for v in printed["violations"]] == [0.0, 1.0, 2.0]
        assert "3 violation(s) (7 more suppressed)" in report.render()

    def test_attach_trace_mirrors_violations(self):
        ring = RingSink()
        monitor = ConformanceMonitor()
        monitor.attach_trace(ring)
        monitor.watch_flow(1)
        monitor.emit(DropEvent(time=0.5, flow_id=1, size=100.0, reason="threshold"))
        mirrored = [e for e in ring.events() if type(e).kind == "violation"]
        assert len(mirrored) == 1
        assert mirrored[0].check == "conformant-drop"
        assert mirrored[0].flow_id == 1


class TestPathBoundCaughtPerHop:
    """No path exceeds the sum of its hop bounds unflagged by ``hop-delay``.

    The network delay bound is the sum of the per-hop bounds, so a flow
    whose per-hop maxima add up to more than every hop's limit together
    (``bound * (1 + tolerance)`` plus the absolute slack, per hop) must
    have crossed its own limit at one hop at least.  Both sums are taken
    in route order, and float addition is monotone, so the implication
    holds to the bit.
    """

    @given(
        hops=st.lists(
            st.tuples(
                st.floats(1e-6, 1.0),  # the hop's bound
                st.lists(st.floats(0.0, 2.5), min_size=1, max_size=4),  # delays / bound
            ),
            min_size=1,
            max_size=5,
        ),
        tolerance=st.sampled_from([0.0, 1e-9, 1e-3]),
    )
    @settings(max_examples=examples(200), deadline=None)
    def test_path_over_summed_bound_has_a_hop_violation(self, hops, tolerance):
        monitor = ConformanceMonitor(tolerance=tolerance)
        route = [f"n{i}->n{i + 1}" for i in range(len(hops))]
        summed_max = summed_limit = 0.0
        for node, (bound, fractions) in zip(route, hops):
            monitor.set_hop_bound(node, bound)
            delays = [bound * fraction for fraction in fractions]
            for time, delay in enumerate(delays):
                monitor.emit(DepartEvent(float(time), 4, 500.0, delay, node))
            summed_max += max(delays)
            summed_limit += bound * (1.0 + tolerance) + _ABS_SLACK
        flagged = {v.node for v in monitor.violations if v.check == "hop-delay"}
        assert flagged <= set(route)
        if summed_max > summed_limit:
            assert flagged, (summed_max, summed_limit)
        for violation in monitor.violations:
            assert violation.observed > violation.bound


class TestDispatch:
    """One event of every kind, and one object that is no event at all."""

    STREAM = [
        EnqueueEvent(0.1, 1, 500.0, 1, "a->b"),
        ThresholdCrossEvent(0.2, 1, 4000.0, 4000.0, "up", "a->b"),
        HeadroomEvent(0.3, 1500.0, 2.0, "a->b"),
        PoolEvent(0.4, 6000.0, 1000.0, 3000.0, 10000.0, 2, "a"),
        HeapCompactEvent(0.5, 120, 40),
        SampleEvent(0.6, "occupancy", 4500.0, "a->b"),
        ViolationEvent(0.7, "hop-delay", "error", 0.03, 0.02, 1, "a->b"),
        object(),  # no .time: counted, otherwise ignored
        DropEvent(0.8, 1, 500.0, "threshold", "a->b"),
        DepartEvent(0.9, 1, 500.0, 0.004, "a->b"),
        ReprovisionEvent(1.0, 1, 1000.0, 2000.0, "a->b"),
        EnqueueEvent(0.05, 1, 500.0, 1, "a->b"),  # out of order
    ]

    @staticmethod
    def state(monitor):
        return (
            list(monitor.violations),
            dict(monitor._checks),
            dict(monitor._drain_caps),
        )

    def test_only_drop_depart_and_reprovision_reach_a_check(self):
        assert {type(e) for e in self.STREAM} >= set(EVENT_TYPES.values())
        monitor = ConformanceMonitor()
        monitor.watch_flow(1)
        monitor.set_hop_bound("a->b", 0.001)
        for seen, event in enumerate(self.STREAM, start=1):
            before = self.state(monitor)
            monitor.emit(event)
            assert monitor.events_seen == seen
            changed = self.state(monitor) != before
            assert changed == isinstance(
                event, (DropEvent, DepartEvent, ReprovisionEvent)
            ), event
        assert [v.check for v in monitor.violations] == ["conformant-drop", "hop-delay"]
        assert monitor._drain_caps == {("a->b", 1): 2000.0}
        assert monitor.finalize().events_seen == len(self.STREAM)


class TestMonitorBesideSink:
    """A monitor teed with a recording sink behaves as each does alone.

    The tee records the sink inline and calls the monitor's checks only
    for the kinds they read: nothing may be dropped, reordered or
    counted twice on the way, on a clean run or on one that mirrors
    findings into the sink.
    """

    SCENARIOS = {
        "reference-tandem": lambda: demo_tandem(
            hops=3, seed=15, sim_time=1.0, churn=True, reclamation=True
        ),
        "undersized": lambda: replace(undersized_tandem(hops=2, seed=0), sim_time=2.0),
    }

    @pytest.mark.parametrize("name", list(SCENARIOS))
    def test_together_equals_each_alone(self, name):
        scenario = self.SCENARIOS[name]()
        sink = RingSink(capacity=1_000_000)
        both = run_fabric(scenario, sink=sink, monitor=ConformanceMonitor())
        monitor_alone = run_fabric(scenario, monitor=ConformanceMonitor())
        sink_alone = RingSink(capacity=1_000_000)
        run_fabric(scenario, sink=sink_alone)

        assert both.monitor_report.to_dict() == monitor_alone.monitor_report.to_dict()
        recorded = sink.events()
        assert sink.emitted == len(recorded)
        traced = [event for event in recorded if not isinstance(event, ViolationEvent)]
        assert traced == sink_alone.events()
        assert both.monitor_report.events_seen == len(traced)
        # A mirrored finding lands right after the drop that caused it.
        mirrored = [i for i, event in enumerate(recorded) if isinstance(event, ViolationEvent)]
        assert bool(mirrored) == (name == "undersized")
        for index in mirrored:
            finding, cause = recorded[index], recorded[index - 1]
            assert isinstance(cause, DropEvent)
            assert (cause.time, cause.flow_id, cause.node) == (
                finding.time, finding.flow_id, finding.node
            )


class TestReport:
    def test_violation_round_trip(self):
        # Through JSON text, as ``obs monitor --json`` prints it.
        assert json.loads(json.dumps(sample_violation().to_dict())) == {
            "check": "hop-delay",
            "severity": "error",
            "time": 1.25,
            "flow_id": 3,
            "node": "n0->n1",
            "observed": 0.2,
            "bound": 0.1,
            "window": 0.05,
            "message": "per-hop delay exceeded analytic bound",
        }

    def test_violation_render(self):
        text = sample_violation().render()
        assert "hop-delay" in text and "[error]" in text
        assert "node=n0->n1" in text and "flow=3" in text
        anonymous = sample_violation(flow_id=-1, node="", message="")
        assert "flow=-" in anonymous.render()
        assert "node=-" in anonymous.render()

    def test_report_round_trip(self):
        report = MonitorReport(
            violations=[sample_violation()],
            events_seen=42,
            sweeps=7,
            checks={"hop-delay": 5},
        )
        assert json.loads(json.dumps(report.to_dict())) == {
            "ok": False,
            "events_seen": 42,
            "sweeps": 7,
            "checks": {"hop-delay": 5},
            "violations": [sample_violation().to_dict()],
            "suppressed": 0,
        }
        assert MonitorReport(events_seen=1).to_dict()["ok"] is True

    def test_report_render(self):
        ok = MonitorReport(events_seen=10, sweeps=2)
        assert "conformance: OK" in ok.render()
        bad = MonitorReport(violations=[sample_violation()])
        assert "1 violation(s)" in bad.render()
        assert "hop-delay" in bad.render()
