"""Unit + property tests for the micro-activity recognition stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.micro import (
    DecisionTreeClassifier,
    DeterministicAnnealing,
    FEATURE_COUNT,
    RandomForestClassifier,
    detect_change_points,
    extract_features,
    frame_signal,
    goertzel_power,
    goertzel_spectrum,
    segment_stream,
)
from repro.micro.changepoint import majority_smooth


class TestGoertzel:
    def test_peak_at_signal_frequency(self):
        fs, f0 = 50.0, 3.0
        t = np.arange(300) / fs
        signal = np.sin(2 * np.pi * f0 * t)
        spectrum = goertzel_spectrum(signal, fs, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert np.argmax(spectrum) == 2

    @given(st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0]))
    @settings(max_examples=10, deadline=None)
    def test_peak_property(self, f0):
        fs = 50.0
        t = np.arange(500) / fs
        signal = np.sin(2 * np.pi * f0 * t)
        bands = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        spectrum = goertzel_spectrum(signal, fs, bands)
        assert bands[np.argmax(spectrum)] == f0

    def test_zero_signal_zero_power(self):
        assert goertzel_power(np.zeros(100), 50.0, 2.0) == pytest.approx(0.0)

    def test_rejects_beyond_nyquist(self):
        with pytest.raises(ValueError):
            goertzel_power(np.ones(10), 50.0, 26.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            goertzel_power(np.array([]), 50.0, 2.0)


class TestFeatures:
    def test_feature_count_is_32(self):
        frame = np.random.default_rng(0).normal(size=(75, 3))
        assert extract_features(frame).shape == (FEATURE_COUNT,)
        assert FEATURE_COUNT == 32

    def test_features_finite(self):
        frame = np.zeros((75, 3))  # degenerate constant frame
        feats = extract_features(frame)
        assert np.all(np.isfinite(feats))

    def test_framing_counts(self):
        traj = np.zeros((300, 3))
        frames = list(frame_signal(traj, 50.0, frame_s=1.5, overlap=0.5))
        # 75-sample frames, hop = round(75 * 0.5) = 38: floor((300-75)/38)+1 = 6
        assert len(frames) == 6
        assert frames[0][1].shape == (75, 3)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            extract_features(np.zeros((75, 2)))
        with pytest.raises(ValueError):
            list(frame_signal(np.zeros((100, 4)), 50.0))


class TestChangepoint:
    def test_detects_mean_shift(self):
        rng = np.random.default_rng(1)
        stream = np.vstack(
            [rng.normal(0, 0.3, (40, 4)), rng.normal(4.0, 0.3, (40, 4))]
        )
        points = detect_change_points(stream, window=8, threshold=2.0)
        assert any(abs(p - 40) <= 4 for p in points)

    def test_stationary_stream_has_no_changes(self):
        rng = np.random.default_rng(2)
        stream = rng.normal(0, 1.0, (80, 4))
        assert detect_change_points(stream, window=8, threshold=4.0) == []

    def test_segments_partition_stream(self):
        rng = np.random.default_rng(3)
        stream = np.vstack([rng.normal(0, 0.3, (30, 2)), rng.normal(5, 0.3, (30, 2))])
        segments = segment_stream(stream, window=6, threshold=2.0)
        assert segments[0][0] == 0
        assert segments[-1][1] == 60
        for (_a, b), (c, _d) in zip(segments[:-1], segments[1:]):
            assert b == c

    def test_majority_smooth(self):
        labels = ["a", "a", "b", "a", "a", "c", "c", "c"]
        smoothed = majority_smooth(labels, [(0, 5), (5, 8)])
        assert smoothed == ["a"] * 5 + ["c"] * 3


class TestDecisionTree:
    def _blobs(self, n=120, seed=0):
        rng = np.random.default_rng(seed)
        x0 = rng.normal([0, 0], 0.4, (n // 2, 2))
        x1 = rng.normal([3, 3], 0.4, (n // 2, 2))
        x = np.vstack([x0, x1])
        y = np.array(["a"] * (n // 2) + ["b"] * (n // 2), dtype=object)
        return x, y

    def test_separable_blobs(self):
        x, y = self._blobs()
        tree = DecisionTreeClassifier(seed=1).fit(x, y)
        assert np.mean(tree.predict(x) == y) > 0.98

    def test_proba_sums_to_one(self):
        x, y = self._blobs()
        tree = DecisionTreeClassifier(seed=1).fit(x, y)
        proba = tree.predict_proba(x[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_depth_cap_respected(self):
        x, y = self._blobs(seed=3)
        tree = DecisionTreeClassifier(max_depth=2, seed=1).fit(x, y)
        assert tree.depth() <= 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((3, 2)), ["a", "b"])
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))


class TestRandomForest:
    def test_forest_beats_chance_on_blobs(self):
        rng = np.random.default_rng(5)
        x = np.vstack([rng.normal(i, 0.6, (40, 3)) for i in range(3)])
        y = np.array(sum([[str(i)] * 40 for i in range(3)], []), dtype=object)
        forest = RandomForestClassifier(n_trees=10, seed=2).fit(x, y)
        assert forest.score(x, y) > 0.9

    def test_class_alignment_with_missing_bootstrap_classes(self):
        # Tiny imbalanced data: some bootstraps will miss class "rare".
        rng = np.random.default_rng(6)
        x = np.vstack([rng.normal(0, 0.3, (30, 2)), rng.normal(5, 0.3, (3, 2))])
        y = np.array(["common"] * 30 + ["rare"] * 3, dtype=object)
        forest = RandomForestClassifier(n_trees=12, seed=3).fit(x, y)
        proba = forest.predict_proba(x)
        assert proba.shape == (33, 2)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((1, 2)))


class TestDeterministicAnnealing:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(7)
        x = np.vstack([rng.normal(0, 0.2, (60, 2)), rng.normal(6, 0.2, (60, 2))])
        da = DeterministicAnnealing(n_clusters=2, seed=4).fit(x)
        centers = sorted(da.centers_[:, 0])
        assert centers[0] == pytest.approx(0.0, abs=0.5)
        assert centers[-1] == pytest.approx(6.0, abs=0.5)

    def test_fit_gaussians_shapes(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(80, 3))
        da = DeterministicAnnealing(n_clusters=3, seed=5)
        means, labels = da.fit_gaussians(x)
        k = means.shape[0]
        assert means.shape == (k, 3)
        assert labels.shape == (80,)
        assert labels.max() < k

    def test_predict_nearest(self):
        rng = np.random.default_rng(9)
        x = np.vstack([rng.normal(0, 0.2, (40, 1)), rng.normal(9, 0.2, (40, 1))])
        da = DeterministicAnnealing(n_clusters=2, seed=6).fit(x)
        labels = da.predict(np.array([[0.1], [8.9]]))
        assert labels[0] != labels[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DeterministicAnnealing().fit(np.zeros((0, 2)))
