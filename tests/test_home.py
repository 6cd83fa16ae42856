"""Unit tests for layout, activities, behaviour engine, and simulator."""

import networkx as nx
import numpy as np
import pytest

from repro.home import (
    GESTURAL_ACTIVITIES,
    MACRO_ACTIVITIES,
    POSTURAL_ACTIVITIES,
    BehaviorEngine,
    HomeSimulator,
    activity_profile,
    default_layout,
)
from repro.home.behavior import _POSTURE_GRAPH, segment_at, slice_at
from repro.home.layout import OBJECT_PLACEMENT, SUB_REGIONS


class TestLayout:
    def test_fourteen_sub_regions(self):
        assert len(SUB_REGIONS) == 14
        assert [sr.sr_id for sr in SUB_REGIONS] == [f"SR{i}" for i in range(1, 15)]

    def test_default_layout_sensor_complement(self):
        layout = default_layout(seed=1)
        assert len(layout.pir_sensors) == 6  # one per room
        assert len(layout.object_sensors) == 8
        assert len(layout.beacons) == 9

    def test_object_placement_valid(self):
        layout = default_layout(seed=1)
        ids = set(layout.sub_region_ids)
        for sr_id in OBJECT_PLACEMENT.values():
            assert sr_id in ids

    def test_room_lookup(self):
        layout = default_layout(seed=1)
        assert layout.room_of("SR9") == "bathroom"
        assert layout.room_of("SR10") == "kitchen"
        with pytest.raises(KeyError):
            layout.room_of("SR99")

    def test_sample_position_within_radius(self):
        layout = default_layout(seed=1)
        rng = np.random.default_rng(0)
        sr = layout.sub_region("SR4")
        for _ in range(50):
            x, y = layout.sample_position("SR4", rng)
            assert np.hypot(x - sr.center[0], y - sr.center[1]) <= sr.radius + 1e-9


class TestActivities:
    def test_eleven_macro_activities(self):
        assert len(MACRO_ACTIVITIES) == 11
        assert len(POSTURAL_ACTIVITIES) == 5
        assert len(GESTURAL_ACTIVITIES) == 5

    def test_profiles_are_valid_distributions(self):
        for name in MACRO_ACTIVITIES:
            profile = activity_profile(name)
            assert sum(profile.sublocations.values()) == pytest.approx(1.0, abs=1e-6), name
            assert sum(profile.postural.values()) == pytest.approx(1.0, abs=1e-6), name
            assert sum(profile.gestural.values()) == pytest.approx(1.0, abs=1e-6), name
            lo, hi = profile.duration_range_s
            assert 0 < lo < hi

    def test_profile_vocabulary_consistency(self):
        for profile in map(activity_profile, MACRO_ACTIVITIES):
            assert set(profile.postural) <= set(POSTURAL_ACTIVITIES)
            assert set(profile.gestural) <= set(GESTURAL_ACTIVITIES)

    def test_unknown_activity_raises(self):
        with pytest.raises(KeyError):
            activity_profile("skydiving")

    def test_bathrooming_is_exclusive(self):
        assert activity_profile("bathrooming").exclusive
        assert activity_profile("dining").shareable


class TestBehaviorEngine:
    def _session(self, seed=3, duration=2000.0):
        engine = BehaviorEngine(layout=default_layout(seed), seed=seed)
        return engine.generate_session(("a", "b"), duration), duration

    def test_timelines_tile_the_session(self):
        timelines, duration = self._session()
        for segments in timelines.values():
            assert segments[0].start == 0.0
            for prev, cur in zip(segments[:-1], segments[1:]):
                assert cur.start == pytest.approx(prev.end)
            assert segments[-1].end <= duration + 1e-6

    def test_postural_continuity_follows_graph(self):
        timelines, _ = self._session(seed=9)
        for segments in timelines.values():
            slices = [sl for seg in segments for sl in seg.slices]
            for prev, cur in zip(slices[:-1], slices[1:]):
                if prev.posture != cur.posture:
                    assert _POSTURE_GRAPH.has_edge(prev.posture, cur.posture), (
                        prev.posture,
                        cur.posture,
                    )

    def test_bathroom_never_shared(self):
        timelines, duration = self._session(seed=11, duration=3000.0)
        for t in np.arange(0, duration, 10.0):
            in_bath = 0
            for segments in timelines.values():
                seg = segment_at(segments, t)
                if seg is not None and seg.activity == "bathrooming":
                    in_bath += 1
            assert in_bath <= 1

    def test_micro_slices_cover_segments(self):
        timelines, _ = self._session(seed=13)
        for segments in timelines.values():
            for seg in segments:
                assert seg.slices[0].start == pytest.approx(seg.start)
                assert seg.slices[-1].end == pytest.approx(seg.end, abs=1e-6)

    def test_slice_at_lookup(self):
        timelines, _ = self._session(seed=5)
        segments = timelines["a"]
        mid = 0.5 * (segments[0].start + segments[0].end)
        sl = slice_at(segments, mid)
        assert sl is not None
        assert sl.start <= mid < sl.end or sl is segments[0].slices[-1]

    def test_posture_graph_is_connected(self):
        assert nx.is_connected(_POSTURE_GRAPH)


class TestSimulator:
    def test_session_outputs(self):
        sim = HomeSimulator(seed=21, sensor_tick_s=2.0)
        result = sim.run_session(duration_s=600.0)
        assert result.duration_s == 600.0
        assert set(result.resident_ids) == {"resident_a", "resident_b"}
        assert len(result.beacon_fixes["resident_a"]) > 0
        # All events stamped within (slightly beyond for latency jitter).
        for event in result.events:
            assert 0.0 <= event.t <= 601.0

    def test_truth_defined_mid_session(self):
        sim = HomeSimulator(seed=22, sensor_tick_s=2.0)
        result = sim.run_session(duration_s=600.0)
        truth = result.truth_at("resident_a", 300.0)
        assert truth is not None
        macro, posture, gesture, subloc = truth
        assert macro in MACRO_ACTIVITIES
        assert posture in POSTURAL_ACTIVITIES
        assert subloc.startswith("SR")

    def test_pir_events_reference_rooms(self):
        sim = HomeSimulator(seed=23, sensor_tick_s=2.0)
        result = sim.run_session(duration_s=400.0)
        rooms = {sr.room for sr in result.layout.sub_regions}
        for event in result.events:
            if event.kind == "pir":
                assert event.value in rooms

    def test_three_residents_supported(self):
        sim = HomeSimulator(seed=24, sensor_tick_s=2.0)
        result = sim.run_session(resident_ids=("a", "b", "c"), duration_s=400.0)
        assert set(result.timelines) == {"a", "b", "c"}
