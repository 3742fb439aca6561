"""Typed trace events: vocabulary and serialization round-trips."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.events import (
    EVENT_TYPES,
    DepartEvent,
    DropEvent,
    EnqueueEvent,
    HeadroomEvent,
    PoolEvent,
    ReprovisionEvent,
    SampleEvent,
    ThresholdCrossEvent,
    ViolationEvent,
    event_from_dict,
    event_to_dict,
)

SAMPLES = [
    EnqueueEvent(time=0.5, flow_id=3, size=500.0, backlog=7),
    DropEvent(time=1.0, flow_id=9, size=500.0, reason="threshold"),
    DepartEvent(time=2.5, flow_id=3, size=500.0, delay=0.004),
    ThresholdCrossEvent(
        time=3.0, flow_id=3, occupancy=4000.0, threshold=4000.0, direction="up"
    ),
    HeadroomEvent(time=4.0, headroom=1500.0, holes=2.0),
    EnqueueEvent(time=6.0, flow_id=3, size=500.0, backlog=7, node="n1"),
    DropEvent(time=6.5, flow_id=9, size=500.0, reason="threshold", node="n2"),
    DepartEvent(time=7.0, flow_id=3, size=500.0, delay=0.004, node="n1"),
    ReprovisionEvent(
        time=8.0, flow_id=3, threshold=5000.0, previous=4000.0, node="n1"
    ),
    PoolEvent(
        time=8.5,
        reserved=6000.0,
        headroom=1000.0,
        holes=3000.0,
        capacity=10000.0,
        flows=2,
        node="n1",
    ),
    SampleEvent(time=9.0, series="occupancy", value=4500.0, node="n1"),
    ViolationEvent(
        time=9.5,
        check="hop-delay",
        severity="error",
        observed=0.03,
        bound=0.02,
        flow_id=3,
        node="n1",
    ),
]


class TestVocabulary:
    def test_every_event_class_registered(self):
        assert set(EVENT_TYPES) == {
            "enqueue",
            "drop",
            "depart",
            "threshold",
            "headroom",
            "reprovision",
            "pool",
            "sample",
            "violation",
        }

    def test_kind_tags_match_classes(self):
        for kind, cls in EVENT_TYPES.items():
            assert cls.kind == kind

    def test_events_are_frozen(self):
        event = SAMPLES[0]
        with pytest.raises(AttributeError):
            event.time = 99.0


BY_KIND = pytest.mark.parametrize("event", SAMPLES, ids=lambda e: type(e).kind)


def fields_of(event) -> dict:
    raw = event_to_dict(event)
    assert next(iter(raw)) == "kind"
    del raw["kind"]
    return raw


class TestRecordContract:
    """What every kind promises, whatever backs the record."""

    @BY_KIND
    def test_no_field_can_be_assigned_or_added(self, event):
        for name in ("kind", *fields_of(event), "extra"):
            with pytest.raises(AttributeError):
                setattr(event, name, 99.0)

    @BY_KIND
    def test_positional_order_is_the_serialized_key_order(self, event):
        """Field order is API: emit sites build events by position."""
        fields = fields_of(event)
        by_position = type(event)(*fields.values())
        by_keyword = type(event)(**fields)
        assert by_position == by_keyword == event
        assert hash(by_position) == hash(by_keyword) == hash(event)
        assert event_to_dict(by_position) == event_to_dict(event)

    def test_trailing_fields_default(self):
        assert EnqueueEvent(0.5, 3, 500.0, 7).node == ""
        assert ViolationEvent(9.5, "hop-delay", "error", 0.03, 0.02).flow_id == -1

    def test_kinds_never_compare_equal(self):
        # Same five values, field for field; only the kind differs.
        enqueue = EnqueueEvent(0.0, 1, 500.0, 3, "")
        depart = DepartEvent(0.0, 1, 500.0, 3.0, "")
        assert list(fields_of(enqueue).values()) == list(fields_of(depart).values())
        assert enqueue != depart and not enqueue == depart
        assert len({enqueue, depart}) == 2
        assert {enqueue: "e", depart: "d"}[EnqueueEvent(0.0, 1, 500.0, 3)] == "e"

    def test_an_event_is_not_its_bare_tuple(self):
        event = SAMPLES[0]
        bare = tuple(fields_of(event).values())
        assert event != bare and bare != event
        assert not event == bare and not bare == event

    def test_distinct_samples_are_distinct(self):
        for i, a in enumerate(SAMPLES):
            for j, b in enumerate(SAMPLES):
                assert (a == b) == (i == j)
                assert (a != b) == (i != j)

    @BY_KIND
    def test_from_dict_missing_any_field_raises(self, event):
        for name in fields_of(event):
            raw = event_to_dict(event)
            del raw[name]
            with pytest.raises(KeyError):
                event_from_dict(raw)


class TestSerialization:
    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: type(e).kind)
    def test_round_trip(self, event):
        raw = event_to_dict(event)
        assert raw["kind"] == type(event).kind
        assert event_from_dict(raw) == event

    def test_kind_key_comes_first(self):
        raw = event_to_dict(SAMPLES[0])
        assert next(iter(raw)) == "kind"

    def test_to_dict_rejects_foreign_objects(self):
        with pytest.raises(ConfigurationError):
            event_to_dict({"kind": "enqueue"})

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            event_from_dict({"kind": "martian", "time": 0.0})

    def test_from_dict_missing_field_raises(self):
        with pytest.raises(KeyError):
            event_from_dict({"kind": "enqueue", "time": 0.0})
