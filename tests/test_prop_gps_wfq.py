"""Cross-validation: packetized schedulers against the fluid GPS reference.

The Parekh–Gallager result: an exact GPS-tracking packetized scheduler
(PGPS/WFQ) delivers every packet no later than its fluid GPS finish time
plus one maximum packet transmission time.  Our WFQ uses the standard
backlogged-set virtual-time approximation, so we assert the bound with a
small additional slack; SCFQ's bound is looser (it grows with the number
of flows), which the same harness demonstrates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.gps import gps_finish_times
from repro.core.tail_drop import TailDropManager
from repro.metrics.collector import StatsCollector
from repro.sched.scfq import SCFQScheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort

RATE = 100_000.0
WEIGHTS = {0: 1.0, 1: 2.0, 2: 4.0}
MAX_SIZE = 1_500.0

arrivals_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.01, allow_nan=False),  # gap
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=100.0, max_value=MAX_SIZE, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


def departures_under(scheduler_factory, arrivals):
    """Run arrivals through a port; return [(arrival, departure_time)]."""
    sim = Simulator()
    scheduler = scheduler_factory(sim)
    collector = StatsCollector()
    records = []

    # OutputPort is slotted, so tracing hooks go in a subclass rather
    # than instance monkeypatching.
    class TracedPort(OutputPort):
        def _finish_transmission(self, packet):
            super()._finish_transmission(packet)
            records.append((packet, sim.now))

    # Big buffer: no drops, this is purely about ordering/timing.
    port = TracedPort(sim, RATE, scheduler, TailDropManager(1e9), collector)
    time = 0.0
    normalized = []
    for gap, flow_id, size in arrivals:
        time += gap
        normalized.append((time, flow_id, size))
        packet = Packet(flow_id, size, time)
        sim.schedule_at(time, port.receive, packet)
    sim.run()
    records.sort(key=lambda record: record[0].seq)
    return normalized, [departure for _packet, departure in records]


class TestWFQTracksGPS:
    @given(arrivals=arrivals_strategy)
    @settings(max_examples=60, deadline=None)
    def test_departures_within_pgps_style_bound(self, arrivals):
        normalized, departures = departures_under(
            lambda sim: WFQScheduler(sim, RATE, WEIGHTS), arrivals
        )
        gps = gps_finish_times(normalized, WEIGHTS, RATE)
        # Exact PGPS bound is L_max / R; allow 2x for the standard
        # virtual-time approximation used by the implementation.
        slack = 2.0 * MAX_SIZE / RATE
        for entry, departure in zip(gps, departures):
            assert departure <= entry.finish + slack + 1e-9

    @given(arrivals=arrivals_strategy)
    @settings(max_examples=60, deadline=None)
    def test_departures_never_beat_ideal_service(self, arrivals):
        # No packet can depart before arrival + its own transmission time.
        normalized, departures = departures_under(
            lambda sim: WFQScheduler(sim, RATE, WEIGHTS), arrivals
        )
        for (time, _flow, size), departure in zip(normalized, departures):
            assert departure >= time + size / RATE - 1e-9


class TestSCFQTracksGPSLoosely:
    @given(arrivals=arrivals_strategy)
    @settings(max_examples=60, deadline=None)
    def test_departures_within_scfq_bound(self, arrivals):
        normalized, departures = departures_under(
            lambda sim: SCFQScheduler(WEIGHTS), arrivals
        )
        gps = gps_finish_times(normalized, WEIGHTS, RATE)
        # SCFQ's published bound adds one max packet per *other* flow.
        slack = (len(WEIGHTS) + 1) * MAX_SIZE / RATE
        for entry, departure in zip(gps, departures):
            assert departure <= entry.finish + slack + 1e-9
