"""An exact per-packet call budget: the regression gate for the call chain.

The paper's claim is a cost claim — a constant-time threshold test on a
FIFO replaces sorted scheduling — so the number of calls the simulator
makes per packet is a first-class quantity.  Unlike wall time it repeats
exactly run to run, which makes a committed ceiling a noise-free gate:
a change that lengthens the per-packet path fails here before any
benchmark can resolve it.
"""

import gc
import sys

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.schemes import Scheme
from repro.experiments.workloads import CASE1_GROUPS, table1_flows
from repro.sim.engine import Simulator
from repro.units import mbytes

#: Python + C calls per offered packet inside ``Simulator.run`` on a
#: 0.5 s Table-1 scenario (1 MB buffer, seed 1).  Measured 21.34 /
#: 23.06 / 30.82 / 39.87.  With the packet pool it was 25.41 / 27.13 /
#: 34.97 / 43.99 (acquire/pop/release/len/append per packet on top of
#: the constructor); before the flat admit/depart path 42.62 / 51.93 /
#: 52.15 / 68.36.  The ceilings leave ~4-5% for interpreter versions
#: that count a builtin differently.
CEILINGS = {
    Scheme.FIFO_THRESHOLD: 22.5,
    Scheme.FIFO_SHARING: 24.5,
    Scheme.WFQ_THRESHOLD: 32.0,
    Scheme.HYBRID_SHARING: 41.0,
}


def calls_per_packet(scheme: Scheme) -> float:
    """Calls made between ``Simulator.run`` entry and exit, per packet."""
    run_code = Simulator.run.__code__
    state = {"inside": False, "calls": 0}

    def profiler(frame, event, arg):
        if state["inside"]:
            if event == "call" or event == "c_call":
                state["calls"] += 1
            elif event == "return" and frame.f_code is run_code:
                state["inside"] = False
        elif event == "call" and frame.f_code is run_code:
            state["inside"] = True

    # A collection inside the run would add the finalizers of whatever
    # garbage earlier tests left behind to the count.
    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = run_scenario(
            table1_flows(),
            scheme,
            mbytes(1.0),
            sim_time=0.5,
            warmup=0.0,
            seed=1,
            groups=CASE1_GROUPS if scheme.is_hybrid else None,
        )
    finally:
        sys.setprofile(None)
        gc.enable()
    packets = sum(stats.offered_packets for stats in result.flow_stats.values())
    assert packets > 1000
    return state["calls"] / packets


@pytest.mark.parametrize("scheme", list(CEILINGS), ids=lambda scheme: scheme.name)
def test_calls_per_packet_within_budget(scheme):
    measured = calls_per_packet(scheme)
    assert measured <= CEILINGS[scheme], (
        f"{scheme.name}: {measured:.2f} calls/pkt exceeds the committed "
        f"ceiling {CEILINGS[scheme]}; the per-packet path got longer"
    )


def test_count_repeats_exactly():
    first = calls_per_packet(Scheme.FIFO_THRESHOLD)
    assert calls_per_packet(Scheme.FIFO_THRESHOLD) == first
