"""The sorted schedulers' contract, checked against reference models.

``WFQScheduler`` and ``SCFQScheduler`` (and the hybrid, which is a WFQ
keyed through ``class_of``) spell ``enqueue``/``dequeue`` as one flat
body each: virtual time advanced inline, compare-and-assign for ``max``,
one heap entry per packet built at ``enqueue`` and ``heapreplace`` at
service.  The references below are the straightforward spelling those
bodies replaced — a queue and a parallel deque of tags per flow, ``max``,
an ``_advance_vtime`` helper, pop-then-push — and a Hypothesis property
requires the same packets out in the same order, every ``virtual_time``
read and every ``queue_length`` identical.  Comparisons are exact
(``==``): the flat bodies promise the same float operations in the same
order, which is what keeps the equivalence goldens byte-identical.

Each discipline reads time as ``sim.now`` off the object it was built
with; here that is a stand-in with a settable ``now``.  Head-of-line
entries carry their key's ``FlowQueue`` third, so they are compared with
the reference's through a ``(finish, seq, key, packet)`` projection.

The second half is tracing, which a discipline takes no part in: the
output port emits every packet's ``EnqueueEvent`` itself.  A property
over all five disciplines behind a traced port requires each event to be
the one a scheduler-side emitter would have built — backlog
``len(scheduler)`` right after the insert, stamped with the port's clock
and label — and a fixed script requires that attaching or detaching a
trace moves no departure and no ``virtual_time`` read.
"""

import heapq
from collections import deque
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tail_drop import TailDropManager
from repro.errors import ConfigurationError, SimulationError
from repro.obs.events import EnqueueEvent
from repro.obs.sink import RingSink
from repro.sched.base import Scheduler
from repro.sched.fifo import FIFOScheduler
from repro.sched.hybrid import HybridScheduler
from repro.sched.rpq import RPQScheduler
from repro.sched.scfq import SCFQScheduler
from repro.sched.wfq import WFQScheduler
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.port import OutputPort

LINK_RATE = 10_000.0


class _RefFlow:
    def __init__(self, weight):
        self.weight, self.queue, self.tags = weight, deque(), deque()
        self.last_tag, self.epoch = 0.0, 0


class _Reference(Scheduler):
    """Bookkeeping only; each discipline below spells out its own two bodies."""

    def __init__(self, weights, class_of=None):
        super().__init__()
        self.flows = {key: _RefFlow(float(w)) for key, w in weights.items()}
        self.class_of = class_of
        self.hol, self.vtime, self.epoch, self.count, self.bytes = [], 0.0, 0, 0, 0.0

    def flow_of(self, packet):
        key = packet.flow_id if self.class_of is None else self.class_of.get(packet.flow_id)
        if key not in self.flows:
            raise ConfigurationError(f"no queue for flow {packet.flow_id}")
        return key, self.flows[key]

    def stamp(self, flow, packet):
        if flow.epoch != self.epoch:
            flow.epoch, flow.last_tag = self.epoch, 0.0
        flow.last_tag = max(self.vtime, flow.last_tag) + packet.size / flow.weight
        flow.queue.append(packet)
        flow.tags.append(flow.last_tag)
        return flow.last_tag

    def counted(self, packet, sign):
        self.count += sign
        self.bytes += sign * packet.size

    def __len__(self):
        return self.count

    def queue_length(self, key):
        return len(self.flows[key].queue)


class ReferenceSCFQ(_Reference):
    """Self-clocking: V is the tag of the packet entering service."""

    @property
    def virtual_time(self):
        return self.vtime

    def enqueue(self, packet):
        key, flow = self.flow_of(packet)
        was_empty = not flow.queue
        tag = self.stamp(flow, packet)
        if was_empty:
            heapq.heappush(self.hol, (tag, packet.seq, key, packet))
        self.counted(packet, +1)

    def dequeue(self):
        if not self.hol:
            return None
        tag, _seq, key, packet = heapq.heappop(self.hol)
        flow = self.flows[key]
        assert flow.queue.popleft() is packet
        flow.tags.popleft()
        self.vtime = tag
        if flow.queue:
            heapq.heappush(self.hol, (flow.tags[0], flow.queue[0].seq, key, flow.queue[0]))
        self.counted(packet, -1)
        if self.count == 0:
            self.vtime = 0.0
            self.epoch += 1
        return packet


class ReferenceWFQ(_Reference):
    """V advances at ``R / sum(backlogged weights)`` between operations."""

    def __init__(self, sim, link_rate, weights, class_of=None):
        super().__init__(weights, class_of)
        self.sim, self.rate = sim, link_rate
        self.last_update, self.active_weight = sim.now, 0.0

    @property
    def virtual_time(self):
        self._advance_vtime()
        return self.vtime

    def _advance_vtime(self):
        now = self.sim.now
        if now > self.last_update:
            if self.active_weight > 0:
                self.vtime += (now - self.last_update) * self.rate / self.active_weight
            self.last_update = now

    def enqueue(self, packet):
        key, flow = self.flow_of(packet)
        self._advance_vtime()
        was_empty = not flow.queue
        finish = self.stamp(flow, packet)
        if was_empty:
            self.active_weight += flow.weight
            heapq.heappush(self.hol, (finish, packet.seq, key, packet))
        self.counted(packet, +1)

    def dequeue(self):
        if not self.hol:
            return None
        self._advance_vtime()
        _finish, _seq, key, packet = heapq.heappop(self.hol)
        flow = self.flows[key]
        assert flow.queue.popleft() is packet
        flow.tags.popleft()
        if flow.queue:
            heapq.heappush(self.hol, (flow.tags[0], flow.queue[0].seq, key, flow.queue[0]))
        else:
            self.active_weight -= flow.weight
            if self.active_weight < 1e-9:
                self.active_weight = 0.0
        self.counted(packet, -1)
        if self.count == 0:
            self.vtime = 0.0
            self.last_update = self.sim.now
            self.active_weight = 0.0
            self.epoch += 1
        return packet


N_FLOWS = 8
weights_strategy = st.lists(
    st.floats(min_value=1.0, max_value=5000.0, allow_nan=False), min_size=1, max_size=6
)
#: ("enq", flow, size) | ("deq",) | ("drain",) | ("tick", dt); the trailing
#: bool says whether ``virtual_time`` is read (which advances WFQ's clock
#: bookkeeping) after the operation.  Zero steps and full drains are the
#: edges: same-instant arrivals, and stamps that lapse with the epoch.
#: Arrivals are listed three times and drains once so that backlogs build
#: up between the drains.
enq = st.tuples(
    st.just("enq"),
    st.integers(min_value=0, max_value=N_FLOWS - 1),
    st.floats(min_value=1.0, max_value=1500.0, allow_nan=False),
)
tick = st.tuples(
    st.just("tick"), st.one_of(st.just(0.0), st.floats(min_value=1e-7, max_value=0.5))
)
deq = st.just(("deq",))
ops_strategy = st.lists(
    st.tuples(
        st.one_of(enq, enq, enq, tick, tick, deq, deq, st.just(("drain",))),
        st.booleans(),
    ),
    min_size=1,
    max_size=150,
)


def make_pair(kind, sim, weights, class_of):
    """``(scheduler under test, reference, flow ids it accepts)``."""
    if kind == "scfq":
        return SCFQScheduler(weights), ReferenceSCFQ(weights), list(weights)
    if kind == "hybrid":
        groups = [[f for f in range(N_FLOWS) if f % len(weights) == k] for k in weights]
        rates = list(weights.values())
        real = HybridScheduler(sim, LINK_RATE, groups, rates)
        reference = ReferenceWFQ(sim, LINK_RATE, dict(enumerate(rates)), real.class_of)
        return real, reference, list(real.class_of)
    if class_of is not None:
        class_of = {flow: key % len(weights) for flow, key in class_of.items()}
    real = WFQScheduler(sim, LINK_RATE, weights, class_of=class_of)
    reference = ReferenceWFQ(sim, LINK_RATE, weights, class_of)
    return real, reference, list(weights if class_of is None else class_of)


def keyed_hol(scheduler):
    """The head-of-line heap as ``(finish, seq, key, packet)`` entries."""
    key_of = {flow: key for key, flow in scheduler._flows.items()}
    return [(finish, seq, key_of[flow], packet) for finish, seq, flow, packet in scheduler._hol]


@pytest.mark.parametrize("kind", ["wfq", "scfq", "hybrid"])
@given(
    weights=weights_strategy,
    ops=ops_strategy,
    class_of=st.one_of(
        st.none(),
        st.dictionaries(st.integers(0, N_FLOWS - 1), st.integers(0, 5), min_size=1),
    ),
)
@settings(max_examples=120, deadline=None)
def test_flat_bodies_match_the_reference_to_the_last_bit(kind, weights, ops, class_of):
    sim = SimpleNamespace(now=0.0)
    real, reference, flows = make_pair(kind, sim, dict(enumerate(weights)), class_of)

    def serve():
        packet = real.dequeue()
        assert packet is reference.dequeue()
        return packet

    for (op, *args), probe in ops:
        if op == "enq":
            packet = Packet(flows[args[0] % len(flows)], args[1], sim.now)
            real.enqueue(packet)
            reference.enqueue(packet)
        elif op == "deq":
            serve()
        elif op == "drain":
            while serve() is not None:
                pass
        else:
            sim.now += args[0]
        if probe:
            assert real.virtual_time == reference.virtual_time
        assert len(real) == len(reference)
        lengths = [real.queue_length(key) for key in reference.flows]
        assert lengths == [reference.queue_length(key) for key in reference.flows]
        # One heap entry per backlogged key, never one per packet, and
        # every head-of-line finish tag equal (layouts may differ); each
        # entry carries its own key's queue.
        assert len(real._hol) == sum(1 for length in lengths if length)
        assert sorted(keyed_hol(real)) == sorted(reference.hol)
    while serve() is not None:
        pass
    assert real.virtual_time == reference.virtual_time == 0.0
    # Every packet was served as the reference served it, so the model's
    # enqueued-minus-dequeued bytes are the scheduler's backlog too.
    assert len(real) == 0
    assert abs(reference.bytes) < 1e-6


def test_unknown_flow_and_unknown_key_raise_configuration_error():
    wfq = WFQScheduler(SimpleNamespace(now=0.0), LINK_RATE, {0: 1.0}, class_of={0: 0, 1: 9})
    with pytest.raises(ConfigurationError, match="flow 2 not assigned to any class"):
        wfq.enqueue(Packet(2, 100.0, 0.0))
    with pytest.raises(ConfigurationError, match="unknown WFQ key 9"):
        wfq.enqueue(Packet(1, 100.0, 0.0))
    assert len(wfq) == 0 and wfq.dequeue() is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: WFQScheduler(SimpleNamespace(now=0.0), LINK_RATE, {0: 1.0}),
        lambda: SCFQScheduler({0: 1.0}),
    ],
    ids=["wfq", "scfq"],
)
@pytest.mark.parametrize("damage", ["rotate", "clear"])
def test_heap_out_of_sync_with_the_queue_is_a_simulation_error(make, damage):
    scheduler = make()
    for _ in range(2):
        scheduler.enqueue(Packet(0, 100.0, 0.0))
    getattr(scheduler._flows[0].queue, damage)()
    with pytest.raises(SimulationError, match="out of sync"):
        scheduler.dequeue()


PORT = "n0->n1"


def recording(cls):
    """``cls`` whose ``enqueue`` also builds the event a scheduler-side
    emitter would have: stamped with the clock, backlog after the insert."""

    class Recording(cls):
        def enqueue(self, packet):
            super().enqueue(packet)
            self.expected.append(
                EnqueueEvent(self.clock.now, packet.flow_id, packet.size, len(self), PORT)
            )

    return Recording


WEIGHTS = {0: 100.0, 1: 300.0, 2: 50.0, 3: 1.0}
#: name -> scheduler over flows 0-3 on a ``LINK_RATE`` port, built from
#: the class it is given (the discipline itself, or a recording subclass).
DISCIPLINES = {
    "fifo": (FIFOScheduler, lambda cls, sim: cls()),
    "wfq": (WFQScheduler, lambda cls, sim: cls(sim, LINK_RATE, WEIGHTS)),
    "scfq": (SCFQScheduler, lambda cls, sim: cls(WEIGHTS)),
    "rpq": (RPQScheduler, lambda cls, sim: cls(sim, 0.01, {0: 3, 1: 0, 2: 1, 3: 0})),
    "hybrid": (HybridScheduler, lambda cls, sim: cls(sim, LINK_RATE, [[0, 2], [1, 3]], [1, 3])),
}


@pytest.mark.parametrize("kind", list(DISCIPLINES))
@given(
    arrivals=st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.05)),
            st.integers(0, 3),
            st.floats(min_value=40.0, max_value=1500.0),
        ),
        min_size=1,
        max_size=80,
    ),
    capacity=st.floats(min_value=1500.0, max_value=8000.0),
)
@settings(max_examples=60, deadline=None)
def test_the_port_emits_the_enqueue_event_the_scheduler_would_have(kind, arrivals, capacity):
    cls, make = DISCIPLINES[kind]
    sim = Simulator()
    scheduler = make(recording(cls), sim)
    scheduler.clock, scheduler.expected = sim, []
    port = OutputPort(sim, LINK_RATE, scheduler, TailDropManager(capacity), label=PORT)
    sink = RingSink()
    port.attach_trace(sink)
    now = 0.0
    for gap, flow_id, size in arrivals:
        now += gap
        sim.schedule_at(now, port.receive, Packet(flow_id, size, now))
    sim.run()
    emitted = [event for event in sink.events() if type(event) is EnqueueEvent]
    assert emitted == scheduler.expected
    assert len(emitted) == port.admitted_packets == len(arrivals) - port.dropped_packets


#: Sixteen arrivals, one every 4 ms, 100-180 bytes on a 10 kB/s link:
#: the queue builds, so tracing has service decisions to disturb.
SCRIPT = [(0.004 * (step + 1), step % 2, 100.0 + 40.0 * (step % 3)) for step in range(16)]


def _service(kind, trace):
    """Departures and every ``virtual_time`` read of ``SCRIPT`` behind a port.

    ``trace`` says what happens between the fourth and fifth arrivals:
    None (nothing), "attached" (a trace is attached) or "detached" (a
    trace is attached and detached again).
    """
    cls, make = DISCIPLINES[kind]
    sim = Simulator()
    scheduler = make(cls, sim)
    departed, vtimes = [], []
    delivered = SimpleNamespace(
        receive=lambda packet: departed.append((sim.now, packet.flow_id, packet.size))
    )
    port = OutputPort(sim, LINK_RATE, scheduler, TailDropManager(1e6), downstream=delivered)
    sink = RingSink()
    if trace is not None:
        sim.schedule_at(0.018, port.attach_trace, sink)
        if trace == "detached":
            sim.schedule_at(0.018, port.attach_trace, None)

    def probe():
        vtimes.append(getattr(scheduler, "virtual_time", None))  # RPQ has none

    for when, flow_id, size in SCRIPT:
        sim.schedule_at(when, port.receive, Packet(flow_id, size, when))
        sim.schedule_at(when + 0.001, probe)
    sim.run()
    return departed, vtimes, sink


@pytest.mark.parametrize("kind", ["wfq", "hybrid", "rpq"])
class TestPortTracing:
    """Attaching or detaching a port's trace moves no service decision."""

    def test_a_detached_trace_moves_no_departure(self, kind):
        departed, vtimes, sink = _service(kind, "detached")
        assert (departed, vtimes) == _service(kind, None)[:2]
        assert sink.events() == []

    def test_an_attached_trace_moves_no_departure(self, kind):
        departed, vtimes, sink = _service(kind, "attached")
        assert (departed, vtimes) == _service(kind, None)[:2]
        stamps = [event.time for event in sink.events() if type(event) is EnqueueEvent]
        assert stamps == [when for when, _, _ in SCRIPT[4:]]
