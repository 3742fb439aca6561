"""Table 2: Case-2 traffic characteristics (30 flows).

Regenerates Table 2 and validates the three traffic classes empirically:
average rates on spec, aggressive flows offering ~8x their reservation.
"""

import pytest

from benchmarks.conftest import source_rates
from repro.experiments.report import format_table
from repro.experiments.workloads import (
    TABLE2_AGGRESSIVE,
    table2_flows,
)
from repro.units import to_kbytes, to_mbps


def test_table2_workload(publish):
    flows = table2_flows()
    measured = source_rates(flows, seed=99)
    classes = [("0-9", flows[0]), ("10-19", flows[10]), ("20-29", flows[20])]
    rows = []
    for label, flow in classes:
        ids = range(int(label.split("-")[0]), int(label.split("-")[1]) + 1)
        class_rate = sum(measured[i] for i in ids) / len(list(ids))
        rows.append([
            label,
            f"{to_mbps(flow.peak_rate):.1f}",
            f"{to_mbps(flow.avg_rate):.1f}",
            f"{to_kbytes(flow.bucket):.1f}",
            f"{to_mbps(flow.token_rate):.1f}",
            f"{to_mbps(class_rate):.2f}",
        ])
    table = format_table(
        ["Flow", "Peak (Mb/s)", "Avg (Mb/s)", "Bucket (KB)",
         "Token rate (Mb/s)", "Measured avg (Mb/s)"],
        rows,
    )
    publish("table2", "Table 2: Case 2 traffic characteristics\n" + table)

    # Class-average rates within 10% of spec (averaging 10 flows).
    for start in (0, 10, 20):
        ids = range(start, start + 10)
        class_avg = sum(measured[i] for i in ids) / 10.0
        assert class_avg == pytest.approx(flows[start].avg_rate, rel=0.1)
    # Aggressive flows offer ~8x their reservation.
    for flow_id in TABLE2_AGGRESSIVE:
        assert measured[flow_id] > 4.0 * flows[flow_id].token_rate
