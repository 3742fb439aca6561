"""Eq. (10): buffer requirement versus reserved link utilisation.

Regenerates the paper's analytical trade-off curve ``B >= sum(sigma) /
(1 - u)``: the buffer a FIFO-with-thresholds link needs, relative to
WFQ's ``sum(sigma)``, as reserved utilisation u approaches 1.
"""

import pytest

from repro.analysis.buffer_sizing import buffer_vs_utilization, wfq_min_buffer
from repro.experiments.report import format_table
from repro.experiments.workloads import table1_flows
from repro.units import to_kbytes


def _compute_curve():
    sigma_total = wfq_min_buffer([flow.bucket for flow in table1_flows()])
    grid = [0.0, 0.2, 0.4, 0.5, 0.6, 0.683, 0.75, 0.85, 0.9, 0.95, 0.99]
    return sigma_total, [(u, buffer_vs_utilization(u, sigma_total)) for u in grid]


def test_eq10_buffer_vs_utilization(publish):
    sigma_total, curve = _compute_curve()
    rows = [
        [f"{u:.3f}", f"{to_kbytes(required):.0f}", f"{required / sigma_total:.2f}x"]
        for u, required in curve
    ]
    table = format_table(
        ["reserved utilisation u", "required buffer (KB)", "vs WFQ"], rows
    )
    publish(
        "analysis_eq10",
        "Eq. (10): FIFO buffer requirement vs reserved utilisation\n"
        f"(Table-1 workload, sum(sigma) = {to_kbytes(sigma_total):.0f} KB "
        "= WFQ requirement)\n" + table,
    )

    required = dict(curve)
    # At u = 0 the requirement equals WFQ's.
    assert required[0.0] == pytest.approx(sigma_total)
    # Monotone increasing, and blowing up near u = 1.
    values = [b for _, b in curve]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert required[0.99] > 50 * sigma_total
    # The paper's operating point (u ~ 0.683) costs ~3.2x WFQ's buffer.
    assert required[0.683] / sigma_total == pytest.approx(1 / (1 - 0.683), rel=1e-6)
