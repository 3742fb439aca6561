"""Property-based tests: buffer-manager invariants under random workloads.

Every manager must preserve, for any admissible operation sequence:

* total occupancy == sum of per-flow occupancies,
* total occupancy never exceeds capacity,
* rejected packets change nothing,
* (sharing) holes + headroom + occupancy == capacity, headroom <= H.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_threshold import DynamicThresholdManager
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.fred import FREDManager
from repro.core.red import REDManager
from repro.core.shared_headroom import SharedHeadroomManager
from repro.core.tail_drop import TailDropManager
from repro.sim.rng import Generator, SeedSequence

# An operation is (flow_id, size, depart_fraction); we admit, and later
# depart queued packets driven by the fraction.
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=1.0, max_value=2000.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)

thresholds_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
    min_size=0,
    max_size=5,
)


def drive(manager, ops):
    """Feed an op sequence through a manager, departing FIFO on demand."""
    queued = []  # (flow_id, size) currently in the buffer
    for flow_id, size, depart_first in ops:
        if depart_first and queued:
            gone_flow, gone_size = queued.pop(0)
            manager.on_depart(gone_flow, gone_size)
        if manager.try_admit(flow_id, size):
            queued.append((flow_id, size))
        check_core_invariants(manager, queued)
    # Drain and re-check.
    while queued:
        gone_flow, gone_size = queued.pop(0)
        manager.on_depart(gone_flow, gone_size)
        check_core_invariants(manager, queued)


def check_core_invariants(manager, queued):
    assert manager.total_occupancy <= manager.capacity + 1e-6
    by_flow = {}
    for flow_id, size in queued:
        by_flow[flow_id] = by_flow.get(flow_id, 0.0) + size
    for flow_id, occupancy in by_flow.items():
        assert abs(manager.occupancy(flow_id) - occupancy) < 1e-6
    assert abs(manager.total_occupancy - sum(by_flow.values())) < 1e-6


class TestTailDropInvariants:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, ops):
        drive(TailDropManager(10_000.0), ops)


class TestFixedThresholdInvariants:
    @given(ops=operations, thresholds=thresholds_strategy)
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, ops, thresholds):
        drive(FixedThresholdManager(10_000.0, thresholds), ops)

    @given(ops=operations, thresholds=thresholds_strategy)
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_threshold(self, ops, thresholds):
        manager = FixedThresholdManager(10_000.0, thresholds)
        queued = []
        for flow_id, size, depart_first in ops:
            if depart_first and queued:
                gone = queued.pop(0)
                manager.on_depart(*gone)
            if manager.try_admit(flow_id, size):
                queued.append((flow_id, size))
            assert manager.occupancy(flow_id) <= manager.threshold(flow_id) + 1e-6


class TestSharedHeadroomInvariants:
    @given(
        ops=operations,
        thresholds=thresholds_strategy,
        headroom=st.floats(min_value=0.0, max_value=12_000.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_counter_invariant(self, ops, thresholds, headroom):
        manager = SharedHeadroomManager(10_000.0, thresholds, headroom)
        queued = []
        for flow_id, size, depart_first in ops:
            if depart_first and queued:
                gone = queued.pop(0)
                manager.on_depart(*gone)
            if manager.try_admit(flow_id, size):
                queued.append((flow_id, size))
            free = manager.capacity - manager.total_occupancy
            assert abs(manager.holes + manager.headroom - free) < 1e-3
            assert manager.headroom <= manager.headroom_cap + 1e-9
            assert manager.holes >= -1e-9
        while queued:
            manager.on_depart(*queued.pop(0))
        assert abs(
            manager.holes + manager.headroom - manager.capacity
        ) < 1e-3

    @given(ops=operations, thresholds=thresholds_strategy)
    @settings(max_examples=40, deadline=None)
    def test_sharing_never_stricter_than_fixed_partition(self, ops, thresholds):
        # Any packet the fixed-partition manager admits, the sharing
        # manager (same thresholds, any headroom) admits too.
        fixed = FixedThresholdManager(10_000.0, thresholds)
        sharing = SharedHeadroomManager(10_000.0, thresholds, headroom=3_000.0)
        queued = []  # (flow, size, in_fixed, in_sharing)
        for flow_id, size, depart_first in ops:
            if depart_first and queued:
                gone_flow, gone_size, in_fixed, in_sharing = queued.pop(0)
                if in_fixed:
                    fixed.on_depart(gone_flow, gone_size)
                if in_sharing:
                    sharing.on_depart(gone_flow, gone_size)
            before_states_match = (
                sharing.total_occupancy == fixed.total_occupancy
                and sharing.occupancy(flow_id) == fixed.occupancy(flow_id)
            )
            admitted_sharing = sharing.try_admit(flow_id, size)
            admitted_fixed = fixed.try_admit(flow_id, size)
            if admitted_fixed and before_states_match:
                # From identical occupancy states, sharing admits a
                # superset of what the fixed partition admits.
                assert admitted_sharing
            if admitted_fixed or admitted_sharing:
                queued.append((flow_id, size, admitted_fixed, admitted_sharing))


class TestDynamicThresholdInvariants:
    @given(
        ops=operations,
        alpha=st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, ops, alpha):
        drive(DynamicThresholdManager(10_000.0, alpha=alpha), ops)

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_admission_respects_dynamic_threshold(self, ops):
        manager = DynamicThresholdManager(10_000.0, alpha=1.0)
        for flow_id, size, _ in ops:
            before_free = manager.capacity - manager.total_occupancy
            before_occ = manager.occupancy(flow_id)
            if manager.try_admit(flow_id, size):
                assert before_occ + size <= 1.0 * before_free + 1e-6


class TestREDInvariants:
    @given(ops=operations)
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, ops):
        manager = REDManager(
            10_000.0, 2_000.0, 8_000.0, Generator(SeedSequence(0)), SimpleNamespace(now=0.0)
        )
        drive(manager, ops)

    @given(ops=operations)
    @settings(max_examples=40, deadline=None)
    def test_average_stays_finite_and_nonnegative(self, ops):
        clock = SimpleNamespace(now=0.0)
        manager = REDManager(10_000.0, 2_000.0, 8_000.0, Generator(SeedSequence(1)), clock)
        for flow_id, size, _ in ops:
            clock.now += 0.001
            manager.try_admit(flow_id, size)
            assert 0.0 <= manager.avg <= manager.capacity


class TestFREDInvariants:
    @given(ops=operations)
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, ops):
        manager = FREDManager(
            10_000.0, 2_000.0, 8_000.0, Generator(SeedSequence(2)),
            SimpleNamespace(now=0.0), minq=500.0, maxq=4_000.0,
        )
        drive(manager, ops)
