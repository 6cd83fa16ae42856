"""Unit + property tests for iBeacon ranging and trilateration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors import Beacon, BeaconReceiver, trilaterate

coords = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


class TestChannelModel:
    def test_rssi_decreases_with_distance(self):
        beacon = Beacon("b", (0.0, 0.0))
        receiver = BeaconReceiver([beacon], rssi_noise_db=1e-6, seed=1)
        near = receiver.rssi(beacon, (1.0, 0.0))
        far = receiver.rssi(beacon, (10.0, 0.0))
        assert near > far

    def test_out_of_range_returns_none(self):
        beacon = Beacon("b", (0.0, 0.0))
        receiver = BeaconReceiver([beacon], max_range_m=5.0, seed=1)
        assert receiver.rssi(beacon, (50.0, 0.0)) is None

    def test_distance_inversion_roundtrip(self):
        beacon = Beacon("b", (0.0, 0.0))
        receiver = BeaconReceiver([beacon], rssi_noise_db=1e-9, seed=1)
        for d in (0.5, 2.0, 7.5):
            rssi = receiver.rssi(beacon, (d, 0.0))
            est = receiver.distance_from_rssi(beacon, rssi)
            assert est == pytest.approx(max(d, 0.1), rel=0.02)


class TestTrilateration:
    def test_exact_recovery_with_true_distances(self):
        anchors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        target = np.array([3.0, 7.0])
        dists = np.linalg.norm(anchors - target, axis=1)
        est = trilaterate(anchors, dists)
        assert np.allclose(est, target, atol=1e-9)

    @given(coords, coords)
    @settings(max_examples=40, deadline=None)
    def test_exact_recovery_property(self, x, y):
        anchors = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0], [10.0, 5.0]])
        target = np.array([x, y])
        dists = np.linalg.norm(anchors - target, axis=1)
        est = trilaterate(anchors, dists)
        assert np.allclose(est, target, atol=1e-6)

    def test_requires_three_anchors(self):
        with pytest.raises(ValueError):
            trilaterate(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 1.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            trilaterate(np.zeros((4, 3)), np.ones(4))
        with pytest.raises(ValueError):
            trilaterate(np.zeros((4, 2)), np.ones(3))


class TestLocalization:
    def _receiver(self, noise=0.5):
        beacons = [
            Beacon(f"b{i}", pos)
            for i, pos in enumerate(
                [(0.0, 0.0), (12.0, 0.0), (0.0, 9.0), (12.0, 9.0), (6.0, 4.5)]
            )
        ]
        return BeaconReceiver(beacons, rssi_noise_db=noise, seed=3)

    def test_localize_accuracy_low_noise(self):
        receiver = self._receiver(noise=0.2)
        errors = []
        for _ in range(20):
            est = receiver.localize((4.0, 3.0))
            errors.append(np.linalg.norm(est - np.array([4.0, 3.0])))
        assert np.median(errors) < 1.0

    def test_empty_beacon_list_rejected(self):
        with pytest.raises(ValueError):
            BeaconReceiver([], seed=1)
