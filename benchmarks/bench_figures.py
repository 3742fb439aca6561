"""Figures 1-13: regenerate each, archive it, and assert the paper's shape.

One benchmark parametrised over ``ALL_FIGURES``; ``CHECKS`` holds, per
figure, the qualitative shape the paper reports (its docstring) as
assertions over the reproduced series.
"""

import pytest

from benchmarks.conftest import series_means
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import format_figure
from repro.experiments.schemes import Scheme


def check_figure1(figure):
    """Figure 1: aggregate throughput with threshold-based buffer management.

    Paper shape: the work-conserving FIFO with no management reaches ~90%
    utilisation with barely 500 KB of buffer, while both threshold schemes
    need several times more buffer to match it.
    """
    no_mgmt = series_means(figure, Scheme.FIFO_NONE.value)
    fifo_thresh = series_means(figure, Scheme.FIFO_THRESHOLD.value)
    wfq_thresh = series_means(figure, Scheme.WFQ_THRESHOLD.value)

    # No-management FIFO is near full utilisation already at 500 KB.
    assert no_mgmt[0] > 90.0
    # Threshold schemes start lower: buffer is the price of guarantees.
    assert fifo_thresh[0] < no_mgmt[0]
    assert wfq_thresh[0] < no_mgmt[0]
    # ... and recover utilisation as the buffer grows.
    assert fifo_thresh[-1] > fifo_thresh[0]
    assert max(fifo_thresh) > 85.0


def check_figure2(figure):
    """Figure 2: loss for conformant flows with threshold buffer management.

    Paper shape: without buffer management, FIFO and WFQ perform identically
    badly (aggressive flows fill the buffer and conformant flows lose
    periodically); with thresholds, losses go to ~0 over the plotted range,
    WFQ needing less buffer than FIFO.
    """
    fifo_none = series_means(figure, Scheme.FIFO_NONE.value)
    wfq_none = series_means(figure, Scheme.WFQ_NONE.value)
    fifo_thresh = series_means(figure, Scheme.FIFO_THRESHOLD.value)
    wfq_thresh = series_means(figure, Scheme.WFQ_THRESHOLD.value)

    # Threshold schemes protect conformant flows across the whole range.
    assert max(fifo_thresh) < 0.5
    assert max(wfq_thresh) < 0.5
    # No-management schemes lose where the buffer cannot absorb the
    # overload (the smallest buffers; in short fast-mode runs the largest
    # buffers may soak up the whole measurement window without dropping).
    assert fifo_none[0] > max(fifo_thresh)
    assert fifo_none[0] > 0.0
    assert wfq_none[0] > 0.0


def check_figure3(figure):
    """Figure 3: throughput for non-conformant flows 6 and 8 (thresholds).

    Paper shape: flows 6 and 8 reserve 0.4 vs 2.0 Mb/s and both offer far
    more.  WFQ with thresholds splits the excess roughly in proportion to the
    reservations; FIFO-based schemes do not consistently achieve that split.
    """
    wfq6 = series_means(figure, f"{Scheme.WFQ_THRESHOLD.value} - flow 6")
    wfq8 = series_means(figure, f"{Scheme.WFQ_THRESHOLD.value} - flow 8")
    none6 = series_means(figure, f"{Scheme.FIFO_NONE.value} - flow 6")
    none8 = series_means(figure, f"{Scheme.FIFO_NONE.value} - flow 8")

    # Flow 8 (5x the reservation of flow 6) gets a substantially larger
    # share under WFQ + thresholds at every buffer size.
    for small, large in zip(wfq6, wfq8):
        assert large > 2.0 * small
    # Both flows always exceed their reserved floors (0.4 / 2.0 Mb/s).
    assert min(wfq6) > 0.4
    assert min(wfq8) > 2.0
    # Without management the split simply follows offered load.
    assert none8[-1] > none6[-1]


def check_figure4(figure):
    """Figure 4: aggregate throughput with buffer sharing (H = 2 MB).

    Paper shape: allowing active flows to borrow unused buffer space (holes)
    recovers much of the utilisation lost to fixed partitioning, closing in
    on the no-management baseline once the buffer exceeds the headroom.
    """
    no_mgmt = series_means(figure, Scheme.FIFO_NONE.value)
    fifo_share = series_means(figure, Scheme.FIFO_SHARING.value)
    wfq_share = series_means(figure, Scheme.WFQ_SHARING.value)

    assert no_mgmt[0] > 90.0
    # With B well above the 2 MB headroom, sharing approaches the
    # no-management utilisation (within a few points).
    assert fifo_share[-1] > no_mgmt[-1] - 7.0
    assert wfq_share[-1] > no_mgmt[-1] - 7.0
    # Sharing improves with buffer size.
    assert fifo_share[-1] >= fifo_share[0]


def check_figure5(figure):
    """Figure 5: loss for conformant flows with buffer sharing.

    Paper shape: the utilisation gains of Figure 4 do not come at the cost of
    protection — conformant flows still see (near) zero loss, because the
    headroom keeps space in reserve for flows within their thresholds.
    """
    fifo_share = series_means(figure, Scheme.FIFO_SHARING.value)
    wfq_share = series_means(figure, Scheme.WFQ_SHARING.value)
    fifo_none = series_means(figure, Scheme.FIFO_NONE.value)

    # "this increase in throughput does not lead to worse protection"
    assert max(fifo_share) < 1.0
    assert max(wfq_share) < 1.0
    # The no-management baseline loses where the buffer is tight.
    assert fifo_none[0] > max(fifo_share)


def check_figure6(figure):
    """Figure 6: throughput for non-conformant flows 6 / 8 with buffer sharing.

    Paper shape: "FIFO scheduling with buffer sharing based on thresholds
    successfully mimics WFQ in being able to distribute excess bandwidth in
    proportion to the reserved rate of the flow."
    """
    fifo6 = series_means(figure, f"{Scheme.FIFO_SHARING.value} - flow 6")
    fifo8 = series_means(figure, f"{Scheme.FIFO_SHARING.value} - flow 8")
    wfq6 = series_means(figure, f"{Scheme.WFQ_SHARING.value} - flow 6")
    wfq8 = series_means(figure, f"{Scheme.WFQ_SHARING.value} - flow 8")

    # Flow 8 dominates flow 6 under both schedulers at every point.
    for small, large in zip(fifo6, fifo8):
        assert large > small
    # FIFO + sharing tracks WFQ + sharing on the heavy flow within 35%
    # at the largest buffer (where sharing is fully active).
    assert abs(fifo8[-1] - wfq8[-1]) / wfq8[-1] < 0.35
    # The FIFO-with-sharing split sits in the proportional-to-reservation
    # regime (ratio 5), not the proportional-to-offered-load regime
    # (ratio 4 of offered but with flow 6 starved the no-mgmt ratio
    # explodes); allow wide slack for the short fast-mode runs.
    ratio = fifo8[-1] / max(fifo6[-1], 0.1)
    assert 1.5 < ratio < 12.0


def check_figure7(figure):
    """Figure 7: effect of the headroom H on conformant-flow loss (B = 1 MB).

    Paper shape: "Increasing the headroom has the benefit of protecting
    conformant flows, while reducing the shared buffer space available for
    non-conformant flows" — loss decreases as H grows.
    """
    fifo = series_means(figure, Scheme.FIFO_SHARING.value)
    wfq = series_means(figure, Scheme.WFQ_SHARING.value)

    # Zero headroom (full sharing) exposes conformant flows to at least
    # as much loss as maximal headroom (no sharing, i.e. fixed partition).
    assert fifo[0] >= fifo[-1] - 0.05
    assert wfq[0] >= wfq[-1] - 0.05
    # With H == B the scheme degenerates to fixed partitioning, which the
    # Figure-2 experiments showed protects conformant flows at 1 MB.
    assert fifo[-1] < 0.5
    assert wfq[-1] < 0.5


def check_figure8(figure):
    """Figure 8: hybrid system (Case 1), aggregate throughput.

    Paper shape: the 3-queue hybrid with per-queue buffer sharing performs
    very close to WFQ with buffer sharing across the buffer range.
    """
    hybrid = series_means(figure, Scheme.HYBRID_SHARING.value)
    wfq = series_means(figure, Scheme.WFQ_SHARING.value)

    # Hybrid tracks WFQ + sharing within a few utilisation points.
    for hybrid_point, wfq_point in zip(hybrid, wfq):
        assert abs(hybrid_point - wfq_point) < 8.0
    assert max(hybrid) > 80.0


def check_figure9(figure):
    """Figure 9: hybrid system (Case 1), loss for conformant flows.

    Paper shape: the hybrid protects conformant flows as well as WFQ with
    sharing — near-zero loss across the buffer range.
    """
    hybrid = series_means(figure, Scheme.HYBRID_SHARING.value)
    wfq = series_means(figure, Scheme.WFQ_SHARING.value)

    assert max(hybrid) < 1.0
    assert max(wfq) < 1.0


def check_figure10(figure):
    """Figure 10: hybrid system (Case 1), flows 6 / 8 throughput.

    Paper shape: the hybrid's sharing of excess bandwidth between the two
    non-conformant flows stays close to WFQ-with-sharing behaviour; flow 8
    (5x reservation of flow 6) receives the larger share.
    """
    hybrid6 = series_means(figure, f"{Scheme.HYBRID_SHARING.value} - flow 6")
    hybrid8 = series_means(figure, f"{Scheme.HYBRID_SHARING.value} - flow 8")
    wfq8 = series_means(figure, f"{Scheme.WFQ_SHARING.value} - flow 8")

    for small, large in zip(hybrid6, hybrid8):
        assert large > small
    # Hybrid's flow-8 throughput within 35% of WFQ's at the largest buffer.
    assert abs(hybrid8[-1] - wfq8[-1]) / wfq8[-1] < 0.35
    # Reserved floors always met.
    assert min(hybrid6) > 0.4
    assert min(hybrid8) > 2.0


def check_figure11(figure):
    """Figure 11: hybrid system (Case 2, 30 flows), aggregate throughput.

    Paper shape: "the performance of the hybrid system remains close to that
    of WFQ with buffer sharing, even for this larger number of flows."
    """
    hybrid = series_means(figure, Scheme.HYBRID_SHARING.value)
    wfq = series_means(figure, Scheme.WFQ_SHARING.value)

    for hybrid_point, wfq_point in zip(hybrid, wfq):
        assert abs(hybrid_point - wfq_point) < 8.0
    assert max(hybrid) > 75.0


def check_figure12(figure):
    """Figure 12: hybrid system (Case 2), loss for conformant and moderately
    conformant flows.

    Paper shape: fully conformant flows (0-9) see near-zero loss under the
    hybrid; moderately non-conformant flows (10-19), whose traffic matches
    the profile only on average, see small but non-trivially larger loss.
    """
    hybrid_conf = series_means(figure, f"{Scheme.HYBRID_SHARING.value} - conformant")
    hybrid_mod = series_means(figure, f"{Scheme.HYBRID_SHARING.value} - moderate")
    wfq_conf = series_means(figure, f"{Scheme.WFQ_SHARING.value} - conformant")

    # Conformant flows protected by the hybrid and by WFQ.
    assert max(hybrid_conf) < 1.0
    assert max(wfq_conf) < 1.0
    # Moderately non-conformant flows can lose more than conformant ones.
    assert max(hybrid_mod) >= max(hybrid_conf)


def check_figure13(figure):
    """Figure 13: hybrid system (Case 2), aggressive-flow throughput.

    Paper shape: the aggressive class (flows 20-29, offering 8x their
    aggregate 3 Mb/s reservation) receives its floor plus a bounded share of
    the excess, and the hybrid's allocation tracks WFQ with sharing.
    """
    hybrid = series_means(figure, f"{Scheme.HYBRID_SHARING.value} - aggressive flows")
    wfq = series_means(figure, f"{Scheme.WFQ_SHARING.value} - aggressive flows")

    # The class always gets at least its reserved 3 Mb/s floor...
    assert min(hybrid) > 3.0
    # ... but cannot capture its full 24 Mb/s offered load.
    assert max(hybrid) < 24.0
    # Hybrid tracks WFQ with sharing within 35% at the largest buffer.
    assert abs(hybrid[-1] - wfq[-1]) / wfq[-1] < 0.35


CHECKS = {
    "figure1": check_figure1,
    "figure2": check_figure2,
    "figure3": check_figure3,
    "figure4": check_figure4,
    "figure5": check_figure5,
    "figure6": check_figure6,
    "figure7": check_figure7,
    "figure8": check_figure8,
    "figure9": check_figure9,
    "figure10": check_figure10,
    "figure11": check_figure11,
    "figure12": check_figure12,
    "figure13": check_figure13,
}


def archive_name(name):
    """``figure7`` -> ``figure07``: the test id and the ``results/`` file."""
    return f"figure{int(name.removeprefix('figure')):02d}"


@pytest.mark.parametrize("name", list(ALL_FIGURES), ids=archive_name)
def test_figure(name, publish):
    figure = ALL_FIGURES[name]()
    publish(archive_name(name), format_figure(figure, chart=True))
    CHECKS[name](figure)
