"""Proposition 3 / eq. (17): hybrid rate allocation and buffer savings.

Regenerates the buffer-requirement comparison between a single FIFO
queue and k-queue hybrids for the paper's workloads, using the optimal
excess split alpha_i ~ sqrt(sigma_hat_i rho_hat_i), and shows the effect
of the grouping choice (including the exhaustive optimum for Case 1).
"""

import pytest

from repro.analysis.buffer_sizing import fifo_min_buffer, wfq_min_buffer
from repro.analysis.grouping import (
    best_grouping_exhaustive,
    greedy_grouping,
    grouping_buffer,
)
from repro.experiments.report import format_table
from repro.experiments.workloads import CASE1_GROUPS, LINK_RATE, table1_flows
from repro.units import to_kbytes


def _compute():
    flows = table1_flows()
    profiles = [flow.profile for flow in flows]
    sigmas = [sigma for sigma, _ in profiles]
    rhos = [rho for _, rho in profiles]

    single = fifo_min_buffer(sigmas, rhos, LINK_RATE)
    wfq = wfq_min_buffer(sigmas)
    case1 = grouping_buffer(profiles, CASE1_GROUPS, LINK_RATE)
    greedy3_groups, greedy3 = greedy_grouping(profiles, 3, LINK_RATE)
    best3_groups, best3 = best_grouping_exhaustive(profiles, 3, LINK_RATE)
    per_flow = grouping_buffer(profiles, [[i] for i in range(len(flows))], LINK_RATE)
    return {
        "single FIFO (k=1)": single,
        "paper Case-1 grouping (k=3)": case1,
        "greedy sigma/rho grouping (k=3)": greedy3,
        "exhaustive optimum (k=3)": best3,
        "one queue per flow (k=9)": per_flow,
        "pure WFQ lower bound": wfq,
    }, best3_groups, greedy3_groups


def test_prop3_hybrid_buffer_savings(publish):
    results, best3_groups, greedy3_groups = _compute()
    single = results["single FIFO (k=1)"]
    rows = [
        [name, f"{to_kbytes(value):.0f}", f"{100 * (single - value) / single:.1f}%"]
        for name, value in results.items()
    ]
    table = format_table(["configuration", "buffer needed (KB)", "saving vs k=1"], rows)
    publish(
        "analysis_prop3",
        "Proposition 3: buffer requirement vs queue configuration "
        "(Table-1 workload, optimal rate split)\n"
        f"[best k=3 grouping: {best3_groups}; greedy: {greedy3_groups}]\n" + table,
    )

    wfq = results["pure WFQ lower bound"]
    # Ordering: more queues (with good grouping) never hurt, WFQ bounds all.
    assert results["paper Case-1 grouping (k=3)"] <= single + 1e-6
    assert results["exhaustive optimum (k=3)"] <= results["paper Case-1 grouping (k=3)"] + 1e-6
    assert results["greedy sigma/rho grouping (k=3)"] >= results["exhaustive optimum (k=3)"] - 1e-6
    assert results["one queue per flow (k=9)"] >= wfq
    # The paper's grouping buys a measurable saving on this workload
    # (modest, ~5%: the Table-1 classes have similar sigma/rho ratios,
    # and eq. 17 rewards heterogeneity across queues).
    assert results["paper Case-1 grouping (k=3)"] < 0.99 * single
    # The exhaustive optimum does at least as well, and per-flow queues
    # approach (but never beat) the WFQ lower bound.
    assert results["one queue per flow (k=9)"] < results["paper Case-1 grouping (k=3)"]
