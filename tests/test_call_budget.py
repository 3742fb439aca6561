"""An exact per-packet call budget: the regression gate for the call chain.

The paper's claim is a cost claim — a constant-time threshold test on a
FIFO replaces sorted scheduling — so the number of calls the simulator
makes per packet is a first-class quantity.  Unlike wall time it repeats
exactly run to run, which makes a committed ceiling a noise-free gate:
a change that lengthens the per-packet path fails here before any
benchmark can resolve it.  One row per shape of run: the five scheme
families on a bare port, the network path with churn (with and without
live reclamation), and the attached path — the port with a sink or a
timeline, and the reference tandem with sink, timeline and monitor.

On the attached rows count and cost can part company.  ``sys.setprofile``
reports Python frames and C functions, not slot wrappers, so the
``object.__setattr__`` a frozen dataclass pays per field (five to seven
an event) never counted, while the tuple-backed records that replaced
them count two calls an event (the generated ``__new__`` and
``tuple.__new__``) and cost a third as much to build.  The attached
ceilings therefore sit ~5% above the measured count whichever way a
change moves it, as a tripwire for the call chain; ``cops_per_pkt`` on
the ``tandem-observed`` benchmark workload is the judge of cost.

The same counter, inverted, pins the other half of a campaign's cost:
what one sweep cell spends *outside* ``Simulator.run`` — expanding the
grid, building and digesting the job, claim traffic, pre-flight, fabric
build, record, ``cache.put`` — on a cold pass, a warm pass and an
aggregation, which decodes every cell's cache entry (``FIXED_COST_ROWS``).  Wall-time gates cannot
resolve it (``setup_s`` is mostly imports and spreads 15-36% run to run
on the sweep workload); a call count can.
"""

import gc
import sys

import pytest

from repro.experiments.campaign import ResultCache
from repro.experiments.fabric import (
    ChurnSpec,
    LinkSpec,
    NetworkScenario,
    NodeSpec,
    run_fabric,
)
from repro.experiments.fabric.demo import demo_tandem
from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.sweep import (
    SweepAxis,
    SweepSpec,
    aggregate_sweep,
    run_sweep_worker,
)
from repro.experiments.workloads import CASE1_GROUPS, table1_flows
from repro.obs.monitor import ConformanceMonitor
from repro.obs.sink import RingSink
from repro.obs.timeline import Timeline
from repro.sim.engine import Simulator
from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps, mbytes


def port(scheme: Scheme, **attached):
    """The 0.5 s Table-1 scenario (1 MB buffer, seed 1) on one port."""
    return run_scenario(
        table1_flows(),
        scheme,
        mbytes(1.0),
        sim_time=0.5,
        warmup=0.0,
        seed=1,
        groups=CASE1_GROUPS if scheme.is_hybrid else None,
        **attached,
    )


def tandem(reclamation: bool, **attached):
    """The reference three-hop tandem with flow churn."""
    return run_fabric(
        demo_tandem(hops=3, seed=15, sim_time=2.0, churn=True, reclamation=reclamation),
        **attached,
    )


def observed_tandem():
    """The tandem as the ``tandem-observed`` workload runs it: every hook on."""
    return tandem(
        True, sink=RingSink(), timeline=Timeline(0.01), monitor=ConformanceMonitor()
    )


def churn(reclamation: bool):
    """Admission-dominated churn over two FIFO_THRESHOLD hops.

    No static flows: every event is churn machinery (arrival draws,
    route-wide admission, threshold bookkeeping, departures) or traffic
    of the short-lived accepted flows, at an arrival rate well above
    what the region holds so the reject path dominates.  The pair with
    and without reclamation bounds the reclamation path's overhead.
    """
    hop = dict(scheme=Scheme.FIFO_THRESHOLD, buffer_size=mbytes(1.0))
    template = FlowSpec(
        flow_id=0,
        peak_rate=mbps(8.0),
        avg_rate=mbps(1.0),
        bucket=kbytes(50.0),
        token_rate=mbps(2.0),
        conformant=True,
        mean_burst=kbytes(50.0),
    )
    return run_fabric(
        NetworkScenario(
            nodes=(NodeSpec("a", **hop), NodeSpec("b", **hop), NodeSpec("c")),
            links=(LinkSpec("a", "b", mbps(48.0)), LinkSpec("b", "c", mbps(48.0))),
            flows=(),
            churn=ChurnSpec(
                arrival_rate=120.0,
                mean_holding=0.05,
                templates=(template,),
                routes=(("a", "b", "c"),),
                admission="auto",
                reclamation=reclamation,
            ),
            sim_time=2.0,
            seed=17,
        )
    )


#: row -> (the run, ceiling on Python + C calls per offered packet inside
#: ``Simulator.run``).  Measured 13.418 / 15.135 / 14.424 / 14.429 /
#: 17.962 on the bare port and 15.262 for WFQ with delay histograms on,
#: 18.421 / 18.441 on the tandem, 24.458 / 39.599 on churn, 21.130 with
#: a sink and 29.149 on the observed tandem.  Before the one-heap-call
#: re-queue described last: 16.549 / 18.266 / 17.556 / 17.561 / 21.093
#: on the bare port and 18.393 for WFQ with delay histograms on (21.345
#: / 23.062 / 22.379 / 22.384 / 25.904 and 23.217 before the inline
#: ``FlowStats`` cut described next to last, which the rest predates; 24.064 /
#: 27.602 / 25.744 for the WFQ, hybrid and histogram rows while WFQ and
#: the hybrid read time through a ``lambda: sim.now`` twice a
#: packet and a departure's delay went through ``LogHistogram.record``
#: behind a ``defaultdict``; the three sorted rows 30.75 / 26.38 / 39.80
#: before the flat enqueue/dequeue bodies, when a packet also paid a
#: classifier lambda, ``dict.get``, ``_advance_vtime``, ``max``, a second
#: deque and a pop-then-push, and the hybrid two wrappers and three
#: manager hops; with the packet pool 25.41 / 27.13 / 34.97 / - / 43.99;
#: before the flat admit/depart path 42.62 / 51.93 / 52.15 / - / 68.36;
#: the two WFQ rows 30.82 / 39.87 while every drain walked the flow
#: table), 30.183 / 30.204 on the tandem, which keeps delay histograms
#: per hop and end to end (32.013 / 32.034 through ``record``) and
#: 35.212 / 50.348 on churn (33.825 / 33.846 and 36.226 / 51.362 while
#: sources entered through ``Node.receive``; the bare port, which never
#: did, counts the same to the digit as the one-link case of the
#: fabric), 34.207 with a sink attached and 55.186 on the observed tandem
#: (57.016 through ``record``; 37.557 and 65.635 with dataclass events,
#: an ``isinstance`` chain in the monitor and four calls around each
#: threshold lookup).
#: The random draws count since ``repro.sim.rng`` replaced numpy, whose
#: Cython methods the profiler never saw: a burst's OFF gap and length
#: are two calls where a burst start used to cost ``_begin_burst`` and
#: the call into ``_emit``, so the port rows read +26 calls (21.341 /
#: 23.058 / 22.375 / 22.381 / 25.900 / 23.213 with numpy) and the
#: tandem +82 (30.180 / 30.200 / 55.182).  Churn fell (35.222 / 50.357):
#: seeding an arriving flow is four calls, where numpy's took ten.
#: Callbacks bound once per component and head-of-line entries that
#: carry their queue cost less without counting less: a bound-method
#: allocation and a subscript are not calls.  The network rows fell when
#: a node's route became its egress port (``Node.receive`` had a
#: ``ports.get``) and a delivery one ``FlowStats`` (four ``dict.get``s):
#: 30.183 / 30.204 -> 26.388 / 26.408 on the tandem, 35.212 / 50.348 ->
#: 32.233 / 47.369 on churn.  The attached rows fell further when the
#: port emitted the enqueue event itself (the scheduler called
#: ``_trace_enqueue`` and a clock lambda) and the paper's two policies
#: tested a departure's crossing inline (through ``_after_depart`` and
#: ``_reference_threshold``): 34.207 -> 29.894 with a sink, 55.186 ->
#: 46.005 on the observed tandem.  No row moved when a callback that
#: runs again began returning its next delay for the event queue to
#: re-queue: each ``schedule_fast`` frame it saved became the one
#: ``heappush`` C call the queue makes itself, so cost fell at the same
#: count (``SCHEDULE_FAST_PINS`` pins the frames).  Every row fell when
#: the port began counting its hop's ``FlowStats`` inline (no
#: ``on_offered``/``on_drop``/``on_depart`` frame) and the threshold
#: managers kept occupancy and threshold in one slot (no ``dict.get``):
#: 21.345 / 23.062 / 22.379 / 23.217 / 22.384 / 25.904 -> 16.549 /
#: 18.266 / 17.556 / 18.393 / 17.561 / 21.093 on the port, 26.388 /
#: 26.408 -> 21.003 / 21.023 on the tandem, 32.233 / 47.369 -> 26.389 /
#: 41.530 on churn, 29.894 -> 24.261 with a sink and 46.005 -> 39.543
#: on the observed tandem.  Every row fell again when the event queue
#: began re-queueing a returned delay with one ``heappushpop`` (a
#: ``heappush`` now and a ``heappop`` on the next turn were two C
#: calls) and the sources, the shaper and the schedulers stopped
#: counting packets and bytes nothing read: 16.549 / 18.266 / 17.556 /
#: 18.393 / 17.561 / 21.093 -> 14.389 / 16.105 / 15.395 / 16.233 /
#: 15.400 / 18.933 on the port, 21.003 / 21.023 -> 19.606 / 19.627 on
#: the tandem, 26.389 / 41.530 -> 25.727 / 40.868 on churn, 24.261 ->
#: 22.101 with a sink and 39.543 -> 38.137 on the observed tandem.  The
#: network rows fell when a port began handing a departure on through
#: its per-flow table of next-hop ``receive``s (one subscript, where
#: ``Node.receive`` was a frame), and the observed tandem further when
#: its ``TeeSink`` began recording the ring inline and calling the
#: monitor's checks only for the three kinds they read (``TeeSink.emit``,
#: ``RingSink.emit``, ``ConformanceMonitor.emit`` and its ``dict.get``
#: were four calls an event): 19.606 / 19.627 -> 18.529 / 18.550 on the
#: tandem, 25.727 / 40.868 -> 24.631 / 39.772 on churn and 38.137 ->
#: 30.591 on the observed tandem; the one-link rows never had a next
#: hop and count the same to the digit.  The observed tandem fell again
#: when the monitor stopped keeping per-hop delay maxima for an
#: end-to-end check that only re-added them and began judging each
#: departure against a limit fixed when the hop is bounded (the saved
#: calls are the bound's ``dict.get`` at every departure and the
#: maximum's at every departure of a watched flow): 30.591 -> 29.257.
#: Every row fell when a backlogged shaper began pulling its on-off
#: source: an emission due while the shaper holds packets is made inside
#: the shaper's next release (a ``Packet`` and an append, one
#: ``_replay`` frame per release, ``_burst_end`` once a burst), where it
#: was a drain turn, a ``heappushpop``, ``_emit`` and ``receive``.
#: 14.389 / 16.105 / 15.395 / 16.233 / 15.400 / 18.933 -> 13.418 /
#: 15.135 / 14.424 / 15.262 / 14.429 / 17.962 on the port, 18.529 /
#: 18.550 -> 18.421 / 18.441 on the tandem, 24.631 / 39.772 -> 24.458 /
#: 39.599 on churn, 22.101 -> 21.130 with a sink and 29.257 -> 29.149
#: on the observed tandem, whose shaped flows are rarely backlogged.
#: The event counts are logical (a pulled emission counts as the event
#: it replaces), so ``NETWORK_PINS`` did not move.  A ``schedule_at``
#: stopped building an ``Event`` handle (one ``__init__`` frame) when the
#: engine lost cancellation: 7 calls fewer on each port and tandem row,
#: 176 on each churn row (24.458 / 39.599 -> 24.373 / 39.514); the
#: ceilings hold.
#: The
#: ceilings leave ~5% for interpreter versions that count a builtin
#: differently; a PR that shortens a path lowers its ceiling to ~5%
#: above the new count.
ROWS = {
    "FIFO_THRESHOLD": (lambda: port(Scheme.FIFO_THRESHOLD), 14.1),
    "FIFO_SHARING": (lambda: port(Scheme.FIFO_SHARING), 15.9),
    "WFQ_THRESHOLD": (lambda: port(Scheme.WFQ_THRESHOLD), 15.2),
    # port-wfq-manyflow's shape on nine flows: WFQ with the per-flow
    # delay histograms on, so the histogram leg of a departure shows.
    "WFQ_THRESHOLD-hist": (
        lambda: port(Scheme.WFQ_THRESHOLD, delay_histograms=True), 16.0
    ),
    # SCFQ has no benchmark workload: this row is its only cost gate.
    "SCFQ_THRESHOLD": (lambda: port(Scheme.SCFQ_THRESHOLD), 15.2),
    "HYBRID_SHARING": (lambda: port(Scheme.HYBRID_SHARING), 18.9),
    "tandem-churn": (lambda: tandem(False), 19.3),
    "tandem-churn-reclaim": (lambda: tandem(True), 19.4),
    "churn": (lambda: churn(False), 25.7),
    "churn-reclaim": (lambda: churn(True), 41.6),
    # Same 14,641 events as detached: a dearer attached path shows here
    # before any benchmark can resolve it.
    "FIFO_THRESHOLD-sink": (lambda: port(Scheme.FIFO_THRESHOLD, sink=RingSink()), 22.2),
    "tandem-observed": (observed_tandem, 30.6),
}

#: Network row -> (events, offered packets, dropped packets, churn
#: arrivals, churn accepted[, trace events emitted]).  Interpreter-
#: independent, so pinned with ``==``: the byte-level tripwire of the
#: network path.  The observed row adds its 238 timeline and monitor
#: ticks to the event count and pins what the sink was sent — with a
#: clean report nothing is mirrored, so that is what the monitor saw.
NETWORK_PINS = {
    "tandem-churn": (51_150, 25_224, 0, 12, 3),
    "tandem-churn-reclaim": (51_150, 25_224, 0, 12, 3),
    "churn": (4_180, 2_073, 80, 221, 173),
    "churn-reclaim": (4_180, 2_073, 80, 221, 173),
    "tandem-observed": (51_388, 25_224, 0, 12, 3, 54_398),
}


#: row -> ceiling on ``Simulator.schedule_fast`` frames per offered
#: packet.  A callback that runs again returns its next delay and the
#: event queue re-queues it, so the frames left start a chain from
#: elsewhere: an idle link's first transmission, a shaper's first
#: release, the churn process.  Measured 0.053 / 0.631; 2.213 / 2.028,
#: one per event bar the churn's, while every emission, transmission and
#: release rescheduled itself through the method.
SCHEDULE_FAST_PINS = {"FIFO_THRESHOLD": 0.056, "tandem-churn": 0.663}


def count_calls(run, outside=False, frames_of=None):
    """``(calls between Simulator.run entry and exit, run's result)``.

    With ``outside=True`` the complement: every call ``run`` makes while
    *not* inside ``Simulator.run``.  With ``frames_of`` a function, only
    its frames count.
    """
    run_code = Simulator.run.__code__
    only = None if frames_of is None else frames_of.__code__
    state = {"inside": False, "calls": 0}

    def profiler(frame, event, arg):
        if event == "call" or event == "c_call":
            if not state["inside"] and frame.f_code is run_code and event == "call":
                state["inside"] = True  # the entry itself belongs to neither side
            elif state["inside"] != outside and (
                only is None or (event == "call" and frame.f_code is only)
            ):
                state["calls"] += 1
        elif event == "return" and state["inside"] and frame.f_code is run_code:
            state["inside"] = False

    # A collection inside the run would add the finalizers of whatever
    # garbage earlier tests left behind to the count.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return state["calls"], result


def flow_stats(result) -> list:
    """Every port-level FlowStats of a fabric result."""
    return [fs for link in result.links.values() for fs in link.flow_stats.values()]


@pytest.mark.parametrize("row", list(ROWS))
def test_calls_per_packet_within_budget(row):
    run, ceiling = ROWS[row]
    calls, result = count_calls(run)
    packets = sum(stats.offered_packets for stats in flow_stats(result))
    assert packets > 1000
    assert calls / packets <= ceiling, (
        f"{row}: {calls / packets:.2f} calls/pkt exceeds the committed "
        f"ceiling {ceiling}; the per-packet path got longer"
    )
    if row in NETWORK_PINS:
        pins = (
            result.events_processed,
            packets,
            sum(stats.dropped_packets for stats in flow_stats(result)),
            result.churn.arrivals,
            result.churn.accepted,
        )
        if result.monitor_report is not None:
            assert result.monitor_report.ok
            pins += (result.monitor_report.events_seen,)
        assert pins == NETWORK_PINS[row]


@pytest.mark.parametrize("row", list(SCHEDULE_FAST_PINS))
def test_schedule_fast_frames_per_packet_within_budget(row):
    run, _ = ROWS[row]
    frames, result = count_calls(run, frames_of=Simulator.schedule_fast)
    packets = sum(stats.offered_packets for stats in flow_stats(result))
    assert count_calls(run, frames_of=Simulator.schedule_fast)[0] == frames
    assert frames / packets <= SCHEDULE_FAST_PINS[row], (
        f"{row}: {frames / packets:.3f} schedule_fast frames/pkt exceeds "
        f"{SCHEDULE_FAST_PINS[row]}; a chain reschedules itself through the method again"
    )


def test_count_repeats_exactly():
    for row in ("FIFO_THRESHOLD", "WFQ_THRESHOLD-hist", "HYBRID_SHARING", "churn-reclaim"):
        run, _ = ROWS[row]
        assert count_calls(run)[0] == count_calls(run)[0], row


def test_timeline_cost_is_per_tick_not_per_packet():
    """A sampler costs one event and a bounded number of calls per tick."""
    detached_calls, detached = count_calls(ROWS["FIFO_THRESHOLD"][0])
    timeline = Timeline(0.01)
    calls, sampled = count_calls(lambda: port(Scheme.FIFO_THRESHOLD, timeline=timeline))
    assert timeline.ticks == 49
    assert sampled.events_processed == detached.events_processed + timeline.ticks
    # Measured 24.98 extra calls per tick.
    assert calls - detached_calls <= 26.5 * timeline.ticks


#: The two shapes of sweep: ten one-link cells over the five scheme
#: families of the ``sweep-smallcells`` benchmark workload, and four
#: reference-tandem cells with churn.
FIXED_COST_SCHEMES = (
    "FIFO_THRESHOLD", "FIFO_SHARING", "WFQ_THRESHOLD", "WFQ_SHARING", "HYBRID_SHARING"
)
FIXED_COST_SWEEPS = {
    "one-link": SweepSpec(
        name="budget-one-link",
        axes=(
            SweepAxis("scheme", FIXED_COST_SCHEMES),
            SweepAxis("seed", (1, 2)),
        ),
        base={"sim_time": 0.1, "warmup": 0.0},
    ),
    "network": SweepSpec(
        name="budget-network",
        kind="network",
        axes=(SweepAxis("hops", (2, 3)), SweepAxis("seed", (1, 2))),
        base={"sim_time": 0.2},
    ),
}

#: sweep -> ceilings on Python + C calls per cell outside
#: ``Simulator.run``: (cold pass, warm pass, aggregation).  Measured
#: 698.8 / 163.5 / 196.9 one-link and 866.75 / 205.25 / 224.25 on the
#: network sweep.  Cold read 705.8 / 873.75 while every executed job
#: read a monitoring switch from the environment.  Cold read 767.0 / 921.75 while numpy seeded the
#: sources (92 calls a one-link cell; ``repro.sim.rng`` takes 21, plus
#: each source's first two draws).  The aggregation read 316.5 / 344.75 while each
#: group's interval called scipy's ``t.ppf`` (about 120 calls); the
#: cached quantile is one call.  Cold and warm read 1,264.9 / 275.7 and
#: 1,317.0 / 268.25 while every cell started and joined its own
#: heartbeat thread, rebuilt the Table-1 flows (and the tandem's constant
#: specs) on every pass, copied each flow at its first hop, made its
#: directories before each of three writes and named its files through
#: pathlib.  (Earlier, with two record families and indented cache
#: entries: 3,463.5 / 171.7 / 303.7 and 3,820.0 / 266.75 / 387.5.)  What
#: is left is mostly describing, digesting and building the scenario,
#: seeding its sources and extracting the record.  The counts depend a
#: little on the depth of the cache path (pathlib parses it once per
#: pass); ceilings sit ~5% above them.  One-link and network cold read
#: 718.2 / 884.25 since each threshold manager builds one slot per flow
#: (a constructor and a threshold check each, where it copied a dict),
#: and 720.2 / 886.25 since the worker stores through the runner's one
#: store step and builds its claim payload in a helper shared with the
#: failure record (two calls a cell), and 724.2 / 891.25 since each live
#: link names the static flows routed over it (one generator step a flow,
#: where the record rebuilt that table with one append a flow) and the
#: record picks its end-to-end collector through one property.  Network
#: cold read 892.25 before, and 914.75 since, the pre-flight books a
#: churn cell through the fabric's own ``book_hops`` (a ``HopState`` per
#: link, one ``hop_decision`` per hop of the feasibility test); the
#: ceilings hold.  Cold fell 14.4 (one-link) and 12.5 (network) calls a
#: cell once a record reads its delivery counters straight from the
#: sink's ``flows``: no empty ``DeliverySink`` on one link, no
#: ``{flow: value}`` property views to sort on a network.  Measured
#: 711.0 / 164.7 / 197.5 one-link and 905.25 / 209.25 / 226.75 network
#: while each executed cell appended a shard row that aggregation read
#: before the cache.  Without it, metric extraction moves from the cold
#: pass into aggregation, which decodes every cell's entry: 617.6 /
#: 154.1 / 295.9 and 849.5 / 185.75 / 273.0.  The one-link sum falls
#: 0.5%; the network sum falls 2.5%, because the sweep digest and shard
#: name a worker built once per call weigh most on a four-cell sweep.
#: Cold falls 7.0 (one-link, 617.3 -> 610.3) and 8.5 (network, 848.75 ->
#: 840.25) calls a cell, taken under one cache path for both, once the
#: fabric measures each link straight into the ``LinkRecord`` the record
#: stores: no live per-link result built before the run and converted
#: after it.  Warm and aggregate are unchanged.  Every pass rises 2.0
#: calls a cell (one-link 610.3 / 153.5 / 295.9 -> 612.3 / 155.5 /
#: 297.9, network 840.25 / 184.25 / 273.0 -> 842.25 / 186.25 / 275.0,
#: each taken after a first pass had done the imports) since a
#: ``NetworkScenario`` refuses a flow or churn template that cannot carry
#: one packet: two list comprehensions where a cell builds its scenario.
#: Cold falls 11.0 (one-link, 612.3 -> 601.3) and 8.0 (network, 842.25
#: -> 834.25) calls a cell since a ``schedule_at`` builds no ``Event``
#: handle; the ceilings hold.
FIXED_COST_ROWS = {
    "one-link": (648.5, 162.0, 311.0),
    "network": (892.0, 195.0, 287.0),
}


def fixed_cost(spec, root):
    """Calls outside ``Simulator.run`` for cold / warm / aggregate, per cell."""
    cells = spec.count()
    caches = [ResultCache(root) for _ in range(3)]
    cold_calls, cold = count_calls(
        lambda: run_sweep_worker(spec, caches[0], owner="t", preflight=True),
        outside=True,
    )
    warm_calls, warm = count_calls(
        lambda: run_sweep_worker(spec, caches[1], owner="t", preflight=True),
        outside=True,
    )
    aggregate_calls, aggregate = count_calls(
        lambda: aggregate_sweep(spec, caches[2]), outside=True
    )
    assert cold.executed == cells and cold.outstanding == 0
    assert warm.executed == 0 and warm.outstanding == 0
    assert aggregate["cells"] == cells
    return tuple(calls / cells for calls in (cold_calls, warm_calls, aggregate_calls))


@pytest.mark.parametrize("sweep", list(FIXED_COST_ROWS))
def test_fixed_cost_per_cell_within_budget(sweep, tmp_path):
    spec = FIXED_COST_SWEEPS[sweep]
    fixed_cost(spec, tmp_path / "lazy-imports")  # thrown away: takes them
    first = fixed_cost(spec, tmp_path / "first")
    assert fixed_cost(spec, tmp_path / "second") == first, "the count must repeat"
    for stage, measured, ceiling in zip(
        ("cold", "warm", "aggregate"), first, FIXED_COST_ROWS[sweep]
    ):
        assert measured <= ceiling, (
            f"{sweep} {stage}: {measured:.2f} calls/cell outside Simulator.run "
            f"exceeds the committed ceiling {ceiling}; a cell's fixed cost grew"
        )
