"""The buffer-manager contract, checked against a reference model.

Every policy must behave as *predicate, then charge*: ``try_admit``
evaluates the policy's admission predicate on the current state and, only
if it holds, charges the flow and the total (and, for the sharing
schemes, moves the holes/headroom counters); ``on_depart`` releases the
same amounts.  Some policies spell that out through the generic
``_admits`` path and some as one flat body, so a Hypothesis state machine
drives random admit/depart/reprovision/retire sequences through all
seven ``repro.core`` policies and the hybrid composite beside a small
reference written here, and requires identical decisions, occupancies,
counters and — when a sink is attached — identical event streams.
Comparisons are exact (``==``): the flat paths promise the same float
operations in the same order, not merely close results.
"""

from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.adaptive import AdaptiveSharingManager
from repro.core.dynamic_threshold import DynamicThresholdManager
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.fred import FREDManager
from repro.core.hybrid import HybridBufferManager
from repro.core.red import REDManager
from repro.core.shared_headroom import SharedHeadroomManager
from repro.core.tail_drop import TailDropManager
from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import HeadroomEvent, ReprovisionEvent, ThresholdCrossEvent
from repro.sim.rng import Generator, SeedSequence
from tests.conftest import examples

CAPACITY = 10_000.0
HEADROOM = 1_500.0
ALPHA = 1.0
SHARE = 0.25
ADAPTIVE_FLOWS = (0, 3)
FLOWS = (0, 1, 2, 3, 4)
HYBRID_CLASS_OF = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
KINDS = ("tail-drop", "fixed", "shared", "adaptive", "dynamic", "red", "fred", "hybrid")
#: Kinds whose per-flow thresholds reprovision() really changes.
THRESHOLD_KINDS = ("fixed", "shared", "adaptive", "hybrid")


class Reference:
    """Predicate, then charge — what the deleted accept/release hooks spelled out.

    ``predicate(ref, flow, size)`` decides admission from the reference's
    own state; ``headroom_cap`` switches on the Section-3.3 counters;
    ``crossing(ref, flow)`` is the threshold traced for the flow, if any.
    """

    def __init__(self, capacity, predicate, thresholds=(), headroom_cap=None,
                 crossing=None, events=None):
        self.capacity, self.predicate, self.crossing = capacity, predicate, crossing
        self.thresholds, self.occupancy, self.total = dict(thresholds), {}, 0.0
        self.retired = set()
        self.headroom_cap = headroom_cap
        if headroom_cap is not None:
            self.headroom = min(headroom_cap, capacity)
            self.holes = capacity - self.headroom
        self.events = [] if events is None else events

    def threshold(self, flow):
        return self.thresholds.get(flow, 0.0)

    def try_admit(self, flow, size):
        if size <= 0:
            raise SimulationError("size")
        if not self.predicate(self, flow, size):
            return False
        if self.total + size > self.capacity + 1e-6:
            raise SimulationError("capacity")
        after = self.occupancy.get(flow, 0.0) + size
        self.occupancy[flow] = after
        self.total += size
        if self.headroom_cap is not None:
            from_holes = min(self.holes, size) if after <= self.threshold(flow) else size
            self.holes -= from_holes
            self.headroom -= size - from_holes
            self.events.append(("headroom", self.headroom, self.holes))
        self._cross(flow, after - size, after)
        return True

    def on_depart(self, flow, size):
        after = self.occupancy.get(flow, 0.0) - size
        if after < -1e-6:
            raise SimulationError("negative")
        after = max(after, 0.0)
        self.occupancy[flow] = after
        self.total = max(self.total - size, 0.0)
        if self.headroom_cap is not None:
            self.headroom += size
            self.holes += max(self.headroom - self.headroom_cap, 0.0)
            self.headroom = min(self.headroom, self.headroom_cap)
            self.events.append(("headroom", self.headroom, self.holes))
        self._cross(flow, after + size, after)
        if flow in self.retired and after <= 1e-9:  # drained: forget the flow
            del self.occupancy[flow]
            self.retired.discard(flow)

    def _cross(self, flow, before, after):
        threshold = None if self.crossing is None else self.crossing(self, flow)
        if threshold is None:
            return
        if before < threshold <= after:
            self.events.append(("cross", flow, "up", after, threshold))
        elif after < threshold <= before:
            self.events.append(("cross", flow, "down", after, threshold))

    def reprovision(self, flow, threshold):
        previous = self.threshold(flow)
        self.thresholds[flow] = threshold
        self.retired.discard(flow)  # live again: its slot outlasts the drain
        if threshold != previous:
            self.events.append(("reprovision", flow, threshold, previous))

    def retire(self, flow):
        previous = self.thresholds.pop(flow, None)
        if previous is not None and previous != 0.0:
            self.events.append(("reprovision", flow, 0.0, previous))
        if self.occupancy.get(flow, 0.0) <= 0.0:
            self.occupancy.pop(flow, None)
        else:
            self.retired.add(flow)


class HybridReference:
    """One :class:`Reference` per class partition, sharing an event list."""

    def __init__(self, class_of, references):
        self.class_of, self.references = class_of, references
        self.events = references[0].events

    def _of(self, flow):
        return self.references[self.class_of[flow]]

    def try_admit(self, flow, size):
        return self._of(flow).try_admit(flow, size)

    def on_depart(self, flow, size):
        self._of(flow).on_depart(flow, size)

    def threshold(self, flow):
        return self._of(flow).threshold(flow)

    def reprovision(self, flow, threshold):
        self._of(flow).reprovision(flow, threshold)

    def retire(self, flow):
        self._of(flow).retire(flow)

    @property
    def occupancy(self):
        merged = {}
        for reference in self.references:
            merged.update(reference.occupancy)
        return merged

    @property
    def total(self):
        return sum(reference.total for reference in self.references)


# -- the predicates, restated from the paper --------------------------------


def fits(ref, flow, size):
    return ref.total + size <= ref.capacity


def fixed(ref, flow, size):
    return fits(ref, flow, size) and ref.occupancy.get(flow, 0.0) + size <= ref.threshold(flow)


def sharing(allowance):
    def predicate(ref, flow, size):
        occupancy, threshold = ref.occupancy.get(flow, 0.0), ref.threshold(flow)
        if occupancy + size <= threshold:
            return ref.holes + ref.headroom >= size
        limit = allowance(ref, flow)
        return size <= limit and occupancy - threshold + size <= limit

    return predicate


def shared_allowance(ref, flow):
    return ref.holes


def adaptive_allowance(ref, flow):
    return ref.holes if flow in ADAPTIVE_FLOWS else SHARE * ref.holes


def dynamic(ref, flow, size):
    free_share = ALPHA * (ref.capacity - ref.total)
    return fits(ref, flow, size) and ref.occupancy.get(flow, 0.0) + size <= free_share


def flow_threshold(ref, flow):
    return ref.threshold(flow)


def dynamic_threshold(ref, flow):
    return ALPHA * (ref.capacity - ref.total)


def spied(cls):
    """``cls`` recording its own predicate's verdicts.

    RED and FRED decide from an EWMA and a random draw; their predicate
    is the oracle, and the reference checks what follows from it.
    """

    class Spied(cls):
        def _admits(self, flow_id, size):
            self.verdict = super()._admits(flow_id, size)
            return self.verdict

    return Spied


def build(kind, thresholds, sim):
    """A ``(real manager, reference)`` pair for one policy kind.

    ``sim`` is anything with a float ``now``: RED and FRED read it for
    their idle decay.
    """
    if kind == "tail-drop":
        return TailDropManager(CAPACITY), Reference(CAPACITY, fits)
    if kind == "fixed":
        return (
            FixedThresholdManager(CAPACITY, thresholds),
            Reference(CAPACITY, fixed, thresholds, crossing=flow_threshold),
        )
    if kind == "shared":
        return (
            SharedHeadroomManager(CAPACITY, thresholds, HEADROOM),
            Reference(CAPACITY, sharing(shared_allowance), thresholds, HEADROOM, flow_threshold),
        )
    if kind == "adaptive":
        return (
            AdaptiveSharingManager(CAPACITY, thresholds, HEADROOM, ADAPTIVE_FLOWS, SHARE),
            Reference(CAPACITY, sharing(adaptive_allowance), thresholds, HEADROOM, flow_threshold),
        )
    if kind == "dynamic":
        return (
            DynamicThresholdManager(CAPACITY, ALPHA),
            Reference(CAPACITY, dynamic, crossing=dynamic_threshold),
        )
    if kind in ("red", "fred"):
        rng = Generator(SeedSequence(7))
        if kind == "red":
            real = spied(REDManager)(CAPACITY, 2_000.0, 6_000.0, rng, sim, weight=0.2)
        else:
            real = spied(FREDManager)(
                CAPACITY, 2_000.0, 6_000.0, rng, sim, minq=1_000.0, maxq=4_000.0, weight=0.2
            )
        return real, Reference(CAPACITY, lambda ref, flow, size: real.verdict)
    half = CAPACITY / 2
    events = []
    return (
        HybridBufferManager(
            HYBRID_CLASS_OF,
            [
                FixedThresholdManager(half, thresholds),
                SharedHeadroomManager(half, thresholds, HEADROOM),
            ],
        ),
        HybridReference(
            HYBRID_CLASS_OF,
            [
                Reference(half, fixed, thresholds, crossing=flow_threshold, events=events),
                Reference(half, sharing(shared_allowance), thresholds, HEADROOM,
                          flow_threshold, events),
            ],
        ),
    )


def as_tuple(event):
    if isinstance(event, HeadroomEvent):
        return ("headroom", event.headroom, event.holes)
    if isinstance(event, ThresholdCrossEvent):
        return ("cross", event.flow_id, event.direction, event.occupancy, event.threshold)
    assert isinstance(event, ReprovisionEvent)
    return ("reprovision", event.flow_id, event.threshold, event.previous)


sizes = st.one_of(
    st.sampled_from([500.0, 1_000.0, 1_500.0]),
    st.floats(min_value=0.5, max_value=4_000.0, allow_nan=False),
)


class ManagerContract(RuleBasedStateMachine):
    """Real manager and reference, stepped together and compared each step."""

    @initialize(
        kind=st.sampled_from(KINDS),
        thresholds=st.dictionaries(
            st.sampled_from(FLOWS), st.floats(min_value=0.0, max_value=5_000.0), max_size=5
        ),
        traced=st.booleans(),
    )
    def setup(self, kind, thresholds, traced):
        self.kind = kind
        self.now = 0.0
        # The machine is its managers' clock as well as their trace sink.
        self.real, self.ref = build(kind, thresholds, self)
        self.queued = []
        self.traced = traced
        self.emitted = []
        if traced:
            self.real.attach_trace(self, lambda: self.now)

    def emit(self, event):  # the machine is its own trace sink
        self.emitted.append(as_tuple(event))

    @rule(dt=st.floats(min_value=0.0, max_value=0.01))
    def tick(self, dt):
        self.now += dt

    @rule(flow=st.sampled_from(FLOWS), size=sizes)
    def admit(self, flow, size):
        admitted = self.real.try_admit(flow, size)
        assert admitted == self.ref.try_admit(flow, size)
        if admitted:
            self.queued.append((flow, size))

    @rule(index=st.integers(min_value=0, max_value=1_000))
    def depart(self, index):
        if not self.queued:
            return
        flow, size = self.queued.pop(index % len(self.queued))
        self.real.on_depart(flow, size)
        self.ref.on_depart(flow, size)
        if self.kind in ("red", "fred"):
            # RED's release step: the idle clock starts when the queue empties.
            idle = self.now if self.real.total_occupancy <= 0 else None
            assert self.real._idle_since == idle

    @rule(flow=st.sampled_from(FLOWS), threshold=st.floats(min_value=0.0, max_value=5_000.0))
    def reprovision(self, flow, threshold):
        if self.kind in THRESHOLD_KINDS:
            self.real.reprovision(flow, threshold)
            self.ref.reprovision(flow, threshold)
        elif self.kind == "dynamic":
            self.real.reprovision(flow, threshold)  # validating no-op
        else:
            with pytest.raises(ConfigurationError):
                self.real.reprovision(flow, threshold)

    @rule(flow=st.sampled_from(FLOWS))
    def retire(self, flow):
        self.real.retire(flow)
        self.ref.retire(flow)

    @rule(flow=st.sampled_from(FLOWS), size=st.sampled_from([0.0, -1.0]))
    def non_positive_size_raises(self, flow, size):
        with pytest.raises(SimulationError):
            self.real.try_admit(flow, size)
        with pytest.raises(SimulationError):
            self.ref.try_admit(flow, size)

    @rule(flow=st.sampled_from(FLOWS))
    def unmatched_departure_raises(self, flow):
        excess = self.ref.occupancy.get(flow, 0.0) + 1.0
        with pytest.raises(SimulationError):
            self.real.on_depart(flow, excess)
        with pytest.raises(SimulationError):
            self.ref.on_depart(flow, excess)

    @invariant()
    def same_state(self):
        for flow in FLOWS:
            assert self.real.occupancy(flow) == self.ref.occupancy.get(flow, 0.0)
            if self.kind in THRESHOLD_KINDS:
                assert self.real.threshold(flow) == self.ref.threshold(flow)
        assert self.real.total_occupancy == self.ref.total
        pairs = [(self.real, self.ref)]
        if self.kind == "hybrid":
            pairs = list(zip(self.real.managers, self.ref.references))
        for real, ref in pairs:
            if isinstance(real, SharedHeadroomManager):
                assert (real.holes, real.headroom) == (ref.holes, ref.headroom)
        if self.traced:
            assert self.emitted == self.ref.events


ManagerContract.TestCase.settings = settings(
    max_examples=examples(200), stateful_step_count=40, deadline=None
)
TestManagerContract = ManagerContract.TestCase


@pytest.mark.parametrize(
    ("kind", "sizes"),
    [pytest.param(kind, (1_500.0,), id=kind) for kind in THRESHOLD_KINDS]
    + [  # these sizes drain to a 2.27e-13 residue
        pytest.param(kind, (1_000.0, 1_048.2102085463373), id=f"{kind}-residue")
        for kind in THRESHOLD_KINDS
    ],
)
def test_reprovisioned_retiree_keeps_its_threshold_through_the_drain(kind, sizes):
    """Retire a flow with bytes queued, reprovision the same id, drain it.

    The drain must not reclaim the flow's record with the new threshold
    in it: the threshold survives and keeps gating admission, and the
    flow keeps whatever float residue the drain leaves, as in the
    reference.
    """
    real, ref = build(kind, {0: 2_500.0, 1: 1_000.0}, SimpleNamespace(now=0.0))
    for manager in (real, ref):
        for size in sizes:
            assert manager.try_admit(0, size)
        manager.retire(0)
        manager.reprovision(0, 3_000.0)
        for size in sizes:
            manager.on_depart(0, size)
    assert real.threshold(0) == ref.threshold(0) == 3_000.0
    assert real.occupancy(0) == ref.occupancy.get(0, 0.0) < 1e-9
    decisions = [
        [manager.try_admit(0, size) for size in (2_500.0, 500.0, 1.0, 4_000.0)]
        for manager in (real, ref)
    ]
    assert decisions[0] == decisions[1]
    if kind in ("fixed", "hybrid"):  # flow 0 sits under a hard cap
        assert decisions[0] == [True, True, False, False]


# -- guards the state machine cannot reach from valid sequences --------------


class TestGuardsOnFlatPaths:
    """The flat bodies keep the guards of the generic path, same error type."""

    def test_sharing_counter_divergence_raises_on_admit_and_depart(self):
        manager = SharedHeadroomManager(1_000.0, {1: 500.0}, headroom=200.0)
        assert manager.try_admit(1, 100.0)
        manager.holes += 50.0  # holes + headroom no longer equals free space
        with pytest.raises(SimulationError, match="diverged"):
            manager.try_admit(1, 100.0)
        with pytest.raises(SimulationError, match="diverged"):
            manager.on_depart(1, 100.0)

    def test_negative_sharing_counter_raises(self):
        manager = SharedHeadroomManager(1_000.0, {1: 500.0}, headroom=200.0)
        manager.holes, manager.headroom = 1_010.0, -10.0
        with pytest.raises(SimulationError, match="negative"):
            manager.try_admit(1, 100.0)

    def test_sharing_admission_beyond_capacity_raises(self):
        manager = SharedHeadroomManager(1_000.0, {1: 2_000.0}, headroom=200.0)
        manager.holes = 5_000.0  # corrupt counters make the predicate over-admit
        with pytest.raises(SimulationError, match="beyond capacity"):
            manager.try_admit(1, 1_500.0)
