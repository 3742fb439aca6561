"""Table 1 / Table 2 workload definitions match the paper."""

import pytest

from repro.experiments.workloads import (
    CASE1_GROUPS,
    CASE2_GROUPS,
    LINK_RATE,
    PACKET_SIZE,
    TABLE1_CONFORMANT,
    TABLE1_NONCONFORMANT,
    TABLE2_AGGRESSIVE,
    TABLE2_CONFORMANT,
    TABLE2_MODERATE,
    table1_flows,
    table2_flows,
)
from repro.units import kbytes, mbps, to_mbps


class TestLink:
    def test_link_rate_is_48_mbps(self):
        assert to_mbps(LINK_RATE) == pytest.approx(48.0)

    def test_packet_size_is_500_bytes(self):
        assert PACKET_SIZE == 500.0


class TestTable1:
    def test_nine_flows(self):
        assert len(table1_flows()) == 9

    def test_flow_ids_sequential(self):
        assert [flow.flow_id for flow in table1_flows()] == list(range(9))

    def test_small_conformant_flows(self):
        for flow in table1_flows()[:3]:
            assert flow.peak_rate == mbps(16.0)
            assert flow.avg_rate == mbps(2.0)
            assert flow.bucket == kbytes(50.0)
            assert flow.token_rate == mbps(2.0)
            assert flow.conformant

    def test_large_conformant_flows(self):
        for flow in table1_flows()[3:6]:
            assert flow.peak_rate == mbps(40.0)
            assert flow.token_rate == mbps(8.0)
            assert flow.bucket == kbytes(100.0)
            assert flow.conformant

    def test_nonconformant_flows_unregulated(self):
        flows = table1_flows()
        for flow_id in TABLE1_NONCONFORMANT:
            assert not flows[flow_id].conformant

    def test_nonconformant_burst_is_5x_bucket(self):
        # "their average burst size also exceeds their token bucket by a
        # factor of 5"
        flows = table1_flows()
        for flow_id in TABLE1_NONCONFORMANT:
            assert flows[flow_id].mean_burst == pytest.approx(5 * flows[flow_id].bucket)

    def test_aggregate_reserved_rate(self):
        # "the aggregate reserved rate is 32.8 Mb/s, or about 68% of the
        # link capacity"
        total = sum(flow.token_rate for flow in table1_flows())
        assert to_mbps(total) == pytest.approx(32.8)
        assert total / LINK_RATE == pytest.approx(0.6833, abs=1e-3)

    def test_mean_offered_load_slightly_above_capacity(self):
        # "the mean offered load is a little over 100% of the output
        # link's capacity"
        total = sum(flow.avg_rate for flow in table1_flows())
        assert 1.0 < total / LINK_RATE < 1.15

    def test_flow8_overloads_8x(self):
        flow8 = table1_flows()[8]
        assert flow8.avg_rate / flow8.token_rate == pytest.approx(8.0)

    def test_partition_constants(self):
        assert set(TABLE1_CONFORMANT) | set(TABLE1_NONCONFORMANT) == set(range(9))
        assert not set(TABLE1_CONFORMANT) & set(TABLE1_NONCONFORMANT)


class TestTable2:
    def test_thirty_flows(self):
        assert len(table2_flows()) == 30

    def test_conformant_class(self):
        for flow in table2_flows()[:10]:
            assert flow.peak_rate == mbps(8.0)
            assert flow.avg_rate == mbps(0.6)
            assert flow.bucket == kbytes(15.0)
            assert flow.token_rate == mbps(0.6)
            assert flow.conformant

    def test_moderate_class_unshaped_but_profiled(self):
        # Mean rate and burst match the reservation, but unregulated.
        for flow in table2_flows()[10:20]:
            assert not flow.conformant
            assert flow.avg_rate == flow.token_rate
            assert flow.mean_burst == flow.bucket

    def test_aggressive_class(self):
        # "actual arrival rates are over 8 times their requested
        # reservation rates ... average burst size is 500KBytes"
        for flow in table2_flows()[20:]:
            assert not flow.conformant
            assert flow.avg_rate / flow.token_rate == pytest.approx(8.0)
            assert flow.mean_burst == kbytes(500.0)

    def test_reserved_rate_below_link(self):
        total = sum(flow.token_rate for flow in table2_flows())
        assert to_mbps(total) == pytest.approx(33.0)
        assert total < LINK_RATE

    def test_offered_load_above_capacity(self):
        total = sum(flow.avg_rate for flow in table2_flows())
        assert total > LINK_RATE


class TestGroups:
    def test_case1_groups_partition_table1(self):
        flat = [f for group in CASE1_GROUPS for f in group]
        assert sorted(flat) == list(range(9))

    def test_case1_grouping_by_class(self):
        assert CASE1_GROUPS[0] == (0, 1, 2)
        assert CASE1_GROUPS[1] == (3, 4, 5)
        assert CASE1_GROUPS[2] == (6, 7, 8)

    def test_case2_groups_partition_table2(self):
        flat = [f for group in CASE2_GROUPS for f in group]
        assert sorted(flat) == list(range(30))

    def test_case2_groups_match_classes(self):
        assert CASE2_GROUPS == (TABLE2_CONFORMANT, TABLE2_MODERATE, TABLE2_AGGRESSIVE)
