"""Fixed-partition threshold manager (Sections 2, 3.2)."""

import math

import pytest

from repro.core.adaptive import AdaptiveSharingManager
from repro.core.fixed_threshold import FixedThresholdManager
from repro.core.shared_headroom import SharedHeadroomManager
from repro.errors import ConfigurationError


class TestAdmission:
    def test_below_threshold_admitted(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        assert manager.try_admit(0, 300.0)

    def test_exactly_at_threshold_admitted(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        assert manager.try_admit(0, 400.0)

    def test_beyond_threshold_dropped(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        manager.try_admit(0, 400.0)
        assert not manager.try_admit(0, 100.0)

    def test_threshold_enforced_even_with_free_buffer(self):
        # The logical partition is the whole point: free space elsewhere
        # does not help a flow over its own threshold.
        manager = FixedThresholdManager(10_000.0, {0: 400.0})
        manager.try_admit(0, 400.0)
        assert manager.free_space == 9_600.0
        assert not manager.try_admit(0, 100.0)

    def test_total_capacity_also_enforced(self):
        # Thresholds can oversubscribe the buffer; the physical capacity
        # still binds.
        manager = FixedThresholdManager(1000.0, {0: 800.0, 1: 800.0})
        assert manager.try_admit(0, 800.0)
        assert not manager.try_admit(1, 300.0)

    def test_departure_reopens_threshold(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        manager.try_admit(0, 400.0)
        manager.on_depart(0, 400.0)
        assert manager.try_admit(0, 400.0)

    def test_flows_do_not_interfere_below_capacity(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0, 1: 400.0})
        manager.try_admit(0, 400.0)
        assert manager.try_admit(1, 400.0)


class TestUnknownFlows:
    def test_unknown_flow_dropped_by_default(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        assert not manager.try_admit(99, 100.0)
        assert 99 not in manager._flows  # a rejection leaves no slot behind

    def test_threshold_lookup(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        assert manager.threshold(0) == 400.0
        assert manager.threshold(1) == 0.0


#: The three threshold policies over one buffer: 1000 bytes, flow 0
#: reserving 400; the sharing schemes keep 200 bytes of headroom.
THRESHOLD_POLICIES = {
    "fixed": lambda: FixedThresholdManager(1000.0, {0: 400.0}),
    "sharing": lambda: SharedHeadroomManager(1000.0, {0: 400.0}, headroom=200.0),
    "adaptive": lambda: AdaptiveSharingManager(
        1000.0, {0: 400.0}, headroom=200.0, adaptive_flows=[0, 99]
    ),
}


@pytest.mark.parametrize("policy", list(THRESHOLD_POLICIES))
def test_a_flow_without_a_reservation_is_judged_at_zero(policy):
    """An unknown flow, and a retired one while it drains, has threshold
    0.0: the fixed partition refuses it, the sharing schemes admit it
    from holes only."""
    manager = THRESHOLD_POLICIES[policy]()
    assert manager.try_admit(0, 100.0)
    manager.retire(0)
    assert manager.threshold(0) == manager.threshold(99) == 0.0
    if policy == "fixed":
        assert not manager.try_admit(99, 100.0) and 99 not in manager._flows
        assert not manager.try_admit(0, 100.0)
        return
    # 700 bytes of holes are left beside the 200 of headroom.
    assert manager.try_admit(99, 700.0)
    assert manager.holes == 0.0 and manager.headroom == 200.0
    assert not manager.try_admit(99, 1.0) and not manager.try_admit(0, 1.0)


class TestValidation:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedThresholdManager(1000.0, {0: -1.0})

    def test_zero_threshold_blocks_flow(self):
        manager = FixedThresholdManager(1000.0, {0: 0.0})
        assert not manager.try_admit(0, 1.0)


class TestReprovisionRetire:
    def test_reprovision_installs_a_threshold_live(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        assert not manager.try_admit(7, 100.0)
        manager.reprovision(7, 300.0)
        assert manager.threshold(7) == 300.0
        assert manager.try_admit(7, 300.0)

    def test_shrinking_threshold_is_drain_safe(self):
        # Occupancy above a shrunken threshold is never dropped
        # retroactively: it blocks new admissions and drains normally.
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        manager.try_admit(0, 400.0)
        manager.reprovision(0, 100.0)
        assert manager.occupancy(0) == 400.0
        assert not manager.try_admit(0, 50.0)
        manager.on_depart(0, 350.0)
        assert manager.try_admit(0, 50.0)

    def test_retire_withdraws_the_threshold(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        manager.retire(0)
        assert manager.threshold(0) == 0.0
        assert not manager.try_admit(0, 1.0)

    def test_retire_reclaims_occupancy_entry_after_drain(self):
        manager = FixedThresholdManager(1000.0, {0: 400.0})
        manager.try_admit(0, 200.0)
        manager.retire(0)
        assert manager.occupancy(0) == 200.0  # still draining
        manager.on_depart(0, 200.0)
        assert 0 not in manager._flows  # slot reclaimed

    def test_negative_reprovision_rejected(self):
        manager = FixedThresholdManager(1000.0, {})
        with pytest.raises(ConfigurationError):
            manager.reprovision(0, -1.0)

    def test_reprovision_emits_a_trace_event(self):
        from repro.obs import RingSink
        from repro.obs.events import ReprovisionEvent

        manager = FixedThresholdManager(1000.0, {0: 400.0})
        sink = RingSink()
        manager.attach_trace(sink, lambda: 1.5, node="n0")
        manager.reprovision(0, 250.0)
        manager.retire(0)
        kinds = [e for e in sink.events() if isinstance(e, ReprovisionEvent)]
        assert [(e.threshold, e.previous) for e in kinds] == [
            (250.0, 400.0),
            (0.0, 250.0),
        ]
        assert kinds[0].node == "n0"


class TestNaNRefused:
    """A NaN passes every comparison, so it would switch the threshold test off."""

    def test_nan_threshold_refused_at_construction(self):
        with pytest.raises(ConfigurationError, match="flow 1"):
            FixedThresholdManager(1000.0, {1: math.nan})

    def test_nan_reprovision_refused_and_threshold_kept(self):
        manager = FixedThresholdManager(1000.0, {1: 400.0})
        with pytest.raises(ConfigurationError, match="flow 1"):
            manager.reprovision(1, math.nan)
        assert manager.threshold(1) == 400.0
        assert not manager.try_admit(1, 900.0)

    def test_nan_capacity_refused(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            FixedThresholdManager(math.nan, {1: 400.0})

