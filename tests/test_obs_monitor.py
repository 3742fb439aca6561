"""Live conformance monitor: bounds honoured in vivo, violated in vitro.

Two acceptance runs frame the unit tests: the reference tandem with
churn **and** live reclamation must finish with a clean report (the
paper's guarantees hold under the most dynamic configuration we can
build), while the deliberately undersized tandem must produce
conformant-drop errors and a failing report.  The unit tests then pin
each check in isolation with synthetic events.
"""

import pytest

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
    CHECKS,
    ConformanceMonitor,
    MonitorReport,
    Violation,
)
from repro.obs.sink import RingSink
from repro.obs.timeline import Timeline
from repro.sim.engine import Simulator


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
        assert report.error_count >= len(drops)


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

    def test_e2e_delay_uses_per_hop_maxima_for_shaped_flows(self):
        monitor = ConformanceMonitor()
        route = ("n0->n1", "n1->n2")
        monitor.watch_flow(5, shaped=True, route=route)
        for node in route:
            monitor.set_hop_bound(node, 0.1)
        for node in route:
            monitor.emit(
                DepartEvent(time=1.0, flow_id=5, size=500.0, delay=0.15, node=node)
            )
        report = monitor.finalize()
        e2e = [v for v in report.violations if v.check == "e2e-delay"]
        assert len(e2e) == 1
        assert e2e[0].observed == pytest.approx(0.3)
        assert e2e[0].bound == pytest.approx(0.2)

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
        # ... and so does the report, through its round trip.
        assert report.suppressed == 7
        assert MonitorReport.from_dict(report.to_dict()) == report
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
            dict(monitor._hop_delay_max),
        )

    def test_only_drop_depart_and_reprovision_reach_a_check(self):
        assert {type(e) for e in self.STREAM} >= set(EVENT_TYPES.values())
        monitor = ConformanceMonitor()
        monitor.watch_flow(1)
        monitor.set_hop_bound("a->b", 0.001)
        last_time = 0.0
        for seen, event in enumerate(self.STREAM, start=1):
            before = self.state(monitor)
            monitor.emit(event)
            assert monitor.events_seen == seen
            assert monitor._last_time >= last_time
            last_time = monitor._last_time
            changed = self.state(monitor) != before
            assert changed == isinstance(
                event, (DropEvent, DepartEvent, ReprovisionEvent)
            ), event
        assert last_time == 1.0
        assert [v.check for v in monitor.violations] == ["conformant-drop", "hop-delay"]
        assert monitor._hop_delay_max == {("a->b", 1): 0.004}
        assert monitor._drain_caps == {("a->b", 1): 2000.0}
        assert monitor.finalize().events_seen == len(self.STREAM)


class TestReport:
    def test_violation_round_trip(self):
        violation = sample_violation()
        assert Violation.from_dict(violation.to_dict()) == violation

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
        clone = MonitorReport.from_dict(report.to_dict())
        assert clone == report
        assert not clone.ok
        assert clone.error_count == 1 and clone.warning_count == 0
        # A report written before ``suppressed`` existed reads as none.
        assert MonitorReport.from_dict({"events_seen": 1}).suppressed == 0

    def test_report_render(self):
        ok = MonitorReport(events_seen=10, sweeps=2)
        assert "conformance: OK" in ok.render()
        bad = MonitorReport(violations=[sample_violation()])
        assert "1 violation(s)" in bad.render()
        assert "hop-delay" in bad.render()
