"""Unit + property tests for PIR, object sensors, and the event stream."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors import EventStream, ObjectSensor, PirSensor, SensorEvent, TagManager


class TestPir:
    def test_detects_moving_occupant(self):
        pir = PirSensor("pir:x", "kitchen", detect_prob=1.0, seed=1)
        assert pir.poll(0.0, occupants_moving=1) is True

    def test_refractory_window_silences(self):
        pir = PirSensor("pir:x", "kitchen", detect_prob=1.0, refractory_s=5.0, seed=1)
        assert pir.poll(0.0, occupants_moving=1) is True
        assert pir.poll(1.0, occupants_moving=1) is False
        assert pir.poll(6.0, occupants_moving=1) is True

    def test_empty_room_rarely_fires(self):
        pir = PirSensor("pir:x", "kitchen", false_alarm_prob=0.0, refractory_s=0.0, seed=2)
        fires = sum(bool(pir.poll(float(t), 0, 0)) for t in range(200))
        assert fires == 0

    def test_reset_clears_refractory(self):
        pir = PirSensor("pir:x", "kitchen", detect_prob=1.0, refractory_s=100.0, seed=3)
        pir.poll(0.0, occupants_moving=1)
        pir.reset()
        assert pir.poll(1.0, occupants_moving=1) is True

    def test_multiple_movers_increase_detection(self):
        hits_single = hits_multi = 0
        for seed in range(50):
            one = PirSensor("a", "x", detect_prob=0.4, refractory_s=0.0, seed=seed)
            many = PirSensor("b", "x", detect_prob=0.4, refractory_s=0.0, seed=seed + 1000)
            hits_single += bool(one.poll(0.0, 1))
            hits_multi += bool(many.poll(0.0, 4))
        assert hits_multi > hits_single


class TestObjectSensor:
    def test_threshold_semantics(self):
        sensor = ObjectSensor("obj:x", "stove", "SR10", sensitivity=0.55,
                              false_alarm_prob=0.0, miss_prob=0.0, seed=1)
        assert sensor.threshold == pytest.approx(0.45)
        assert sensor.poll(0.0, interaction_intensity=0.5) is True
        assert sensor.poll(1.0, interaction_intensity=0.3) is False

    def test_negative_intensity_rejected(self):
        sensor = ObjectSensor("obj:x", "stove", "SR10", seed=1)
        with pytest.raises(ValueError):
            sensor.poll(0.0, interaction_intensity=-0.1)


class TestEventStream:
    def test_window_query(self):
        stream = EventStream(
            SensorEvent(float(t), "pir", "p", "kitchen") for t in range(10)
        )
        window = stream.window(2.0, 5.0)
        assert [e.t for e in window] == [2.0, 3.0, 4.0]

    def test_values_in_window(self):
        stream = EventStream()
        stream.append(SensorEvent(1.0, "pir", "p1", "kitchen"))
        stream.append(SensorEvent(1.5, "pir", "p2", "bedroom"))
        stream.append(SensorEvent(1.6, "object", "o1", "stove"))
        assert stream.values_in_window("pir", 0.0, 2.0) == {"kitchen", "bedroom"}
        assert stream.values_in_window("object", 0.0, 2.0) == {"stove"}

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_insertion_keeps_time_order(self, times):
        stream = EventStream()
        for t in times:
            stream.append(SensorEvent(t, "pir", "p", "room"))
        observed = [e.t for e in stream]
        assert observed == sorted(observed)

    def test_span_and_filter(self):
        stream = EventStream(
            [SensorEvent(1.0, "pir", "a", "x"), SensorEvent(3.0, "object", "b", "y")]
        )
        assert stream.span == (1.0, 3.0)
        assert len([e for e in stream if e.kind == "pir"]) == 1


class TestTagManager:
    def test_lossless_delivery(self):
        manager = TagManager(loss_prob=0.0, latency_std_s=0.0, seed=1)
        assert manager.deliver(SensorEvent(1.0, "pir", "p", "kitchen")) is True
        assert len(manager.stream) == 1

    def test_total_loss(self):
        manager = TagManager(loss_prob=1.0, seed=1)
        assert manager.deliver(SensorEvent(1.0, "pir", "p", "kitchen")) is False
        assert manager.dropped == 1
        assert len(manager.stream) == 0

    def test_latency_is_non_negative(self):
        manager = TagManager(loss_prob=0.0, latency_std_s=0.5, seed=2)
        manager.deliver(SensorEvent(10.0, "pir", "p", "kitchen"))
        delivered = list(manager.stream)[0]
        assert delivered.t >= 10.0
