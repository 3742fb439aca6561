"""Workload definitions: Tables 1 and 2 of the paper.

Table 1 (Section 3.2, 9 flows on a 48 Mbit/s link):

    Flow | Peak (Mb/s) | Avg (Mb/s) | Bucket (KB) | Token rate (Mb/s)
    0-2  |    16.0     |    2.0     |     50.0    |       2.0
    3-5  |    40.0     |    8.0     |    100.0    |       8.0
    6-7  |    40.0     |    4.0     |     50.0    |       0.4
    8    |    40.0     |   16.0     |     50.0    |       2.0

Flows 0-5 are conformant (leaky-bucket regulated); flows 6-8 are
unregulated and "their average burst size also exceeds their token bucket
by a factor of 5".  Aggregate reserved rate: 32.8 Mb/s (~68% of link);
mean offered load slightly above link capacity.

Table 2 (Section 4.2 Case 2, 30 flows):

    Flow  | Peak | Avg  | Bucket | Token rate
    0-9   |  8.0 |  0.6 |  15.0  |   0.6       (conformant)
    10-19 | 24.0 |  2.4 |  30.0  |   2.4       (moderately non-conformant)
    20-29 |  8.0 |  2.4 |  35.0  |   0.3       (aggressive, 500 KB bursts)
"""

from __future__ import annotations

from repro.traffic.profiles import FlowSpec
from repro.units import kbytes, mbps

__all__ = [
    "LINK_RATE",
    "PACKET_SIZE",
    "table1_flows",
    "table2_flows",
    "TABLE1_CONFORMANT",
    "TABLE1_NONCONFORMANT",
    "TABLE2_CONFORMANT",
    "TABLE2_MODERATE",
    "TABLE2_AGGRESSIVE",
    "CASE1_GROUPS",
    "CASE2_GROUPS",
]

#: The simulated link: "a little over T3 capacity" (48 Mbit/s), bytes/s.
LINK_RATE = mbps(48.0)

#: The paper's packet size in bytes.
PACKET_SIZE = 500.0

#: Flow-id partitions of the Table-1 workload.
TABLE1_CONFORMANT = tuple(range(0, 6))
TABLE1_NONCONFORMANT = (6, 7, 8)

#: Flow-id partitions of the Table-2 workload.
TABLE2_CONFORMANT = tuple(range(0, 10))
TABLE2_MODERATE = tuple(range(10, 20))
TABLE2_AGGRESSIVE = tuple(range(20, 30))

#: Case-1 hybrid grouping (Section 4.2): small conformant / large
#: conformant / non-conformant.
CASE1_GROUPS = ((0, 1, 2), (3, 4, 5), (6, 7, 8))

#: Case-2 hybrid grouping: one queue per traffic class of Table 2.
CASE2_GROUPS = (TABLE2_CONFORMANT, TABLE2_MODERATE, TABLE2_AGGRESSIVE)


def _flow(
    flow_id: int,
    peak_mbps: float,
    avg_mbps: float,
    bucket_kb: float,
    token_mbps: float,
    conformant: bool,
    burst_kb: float,
) -> FlowSpec:
    return FlowSpec(
        flow_id=flow_id,
        peak_rate=mbps(peak_mbps),
        avg_rate=mbps(avg_mbps),
        bucket=kbytes(bucket_kb),
        token_rate=mbps(token_mbps),
        conformant=conformant,
        mean_burst=kbytes(burst_kb),
    )


# Built and validated once: a FlowSpec is frozen, so every caller can
# share the same nine (thirty) specs — a sweep cell used to rebuild them
# for each job it described.
_TABLE1_FLOWS = (
    *(_flow(flow_id, 16.0, 2.0, 50.0, 2.0, True, 50.0) for flow_id in range(3)),
    *(_flow(flow_id, 40.0, 8.0, 100.0, 8.0, True, 100.0) for flow_id in range(3, 6)),
    *(_flow(flow_id, 40.0, 4.0, 50.0, 0.4, False, 250.0) for flow_id in (6, 7)),
    _flow(8, 40.0, 16.0, 50.0, 2.0, False, 250.0),
)

_TABLE2_FLOWS = (
    *(_flow(flow_id, 8.0, 0.6, 15.0, 0.6, True, 15.0) for flow_id in range(10)),
    *(_flow(flow_id, 24.0, 2.4, 30.0, 2.4, False, 30.0) for flow_id in range(10, 20)),
    *(_flow(flow_id, 8.0, 2.4, 35.0, 0.3, False, 500.0) for flow_id in range(20, 30)),
)


def table1_flows() -> list[FlowSpec]:
    """The 9-flow workload of Table 1 (a fresh list of shared specs).

    Conformant flows use their token bucket as the mean burst (their
    traffic is regulated anyway); non-conformant flows burst 5x their
    bucket, as stated in Section 3.2.
    """
    return list(_TABLE1_FLOWS)


def table2_flows() -> list[FlowSpec]:
    """The 30-flow workload of Table 2, Case 2 (a fresh list of shared specs).

    * 0-9: conformant, shaped to (15 KB, 0.6 Mb/s).
    * 10-19: moderately non-conformant — mean rate and mean burst match
      the profile but the traffic is not reshaped, so it can temporarily
      exceed the envelope.
    * 20-29: aggressive — mean rate 8x the reservation, 500 KB bursts.
    """
    return list(_TABLE2_FLOWS)
