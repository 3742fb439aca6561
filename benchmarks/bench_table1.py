"""Table 1: traffic characteristics and reservation levels.

Regenerates the paper's Table 1 and validates the workload generator
empirically: each flow, run in isolation for a long window, must hit its
specified average rate and stay below its peak rate.
"""

import pytest

from benchmarks.conftest import source_rates
from repro.experiments.report import format_table
from repro.experiments.workloads import table1_flows
from repro.units import to_kbytes, to_mbps


def test_table1_workload(publish):
    flows = table1_flows()
    measured = source_rates(flows, seed=1234)
    rows = []
    for flow in flows:
        rows.append([
            str(flow.flow_id),
            f"{to_mbps(flow.peak_rate):.1f}",
            f"{to_mbps(flow.avg_rate):.1f}",
            f"{to_kbytes(flow.bucket):.1f}",
            f"{to_mbps(flow.token_rate):.1f}",
            "yes" if flow.conformant else "no",
            f"{to_mbps(measured[flow.flow_id]):.2f}",
        ])
    table = format_table(
        ["Flow", "Peak (Mb/s)", "Avg (Mb/s)", "Bucket (KB)",
         "Token rate (Mb/s)", "Conformant", "Measured avg (Mb/s)"],
        rows,
    )
    publish("table1", "Table 1: Traffic characteristics and reservation levels\n" + table)

    # Generator check: long-run averages within 20% of spec (on-off
    # sources with large bursts have high variance).
    for flow in flows:
        assert measured[flow.flow_id] == pytest.approx(flow.avg_rate, rel=0.2), (
            f"flow {flow.flow_id} measured {to_mbps(measured[flow.flow_id]):.2f} Mb/s"
        )
