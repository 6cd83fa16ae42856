"""Unit tests for the 9-axis IMU simulator."""

import numpy as np
import pytest

from repro.sensors.imu import (
    GESTURAL_SIGNATURES,
    GRAVITY,
    POSTURAL_SIGNATURES,
    ImuSimulator,
    signature_for,
)


class TestRegistries:
    def test_five_postural_classes(self):
        assert set(POSTURAL_SIGNATURES) == {"walking", "standing", "sitting", "cycling", "lying"}

    def test_five_gestural_classes(self):
        assert set(GESTURAL_SIGNATURES) == {"silent", "talking", "eating", "yawning", "laughing"}

    def test_signature_lookup(self):
        assert signature_for("postural", "walking").name == "walking"
        assert signature_for("gestural", "talking").base_freq_hz > 0

    def test_unknown_kind_and_name(self):
        with pytest.raises(ValueError):
            signature_for("unknown", "walking")
        with pytest.raises(KeyError):
            signature_for("postural", "flying")


class TestRendering:
    def test_sample_count_matches_duration(self):
        imu = ImuSimulator(sample_rate_hz=50.0, seed=1)
        samples = imu.render(POSTURAL_SIGNATURES["standing"], 2.0)
        assert len(samples) == 100

    def test_timestamps_are_uniform(self):
        imu = ImuSimulator(sample_rate_hz=50.0, seed=1)
        samples = imu.render(POSTURAL_SIGNATURES["sitting"], 1.0, t0=5.0)
        ts = np.array([s.t for s in samples])
        assert ts[0] == pytest.approx(5.0)
        assert np.allclose(np.diff(ts), 0.02)

    def test_static_posture_reads_gravity(self):
        imu = ImuSimulator(seed=2)
        samples = imu.render(POSTURAL_SIGNATURES["standing"], 4.0)
        mags = np.array([np.linalg.norm(s.accel) for s in samples])
        assert abs(np.mean(mags) - GRAVITY) < 0.5

    def test_walking_has_more_energy_than_standing(self):
        imu = ImuSimulator(seed=3)
        walk = imu.render(POSTURAL_SIGNATURES["walking"], 4.0)
        stand = imu.render(POSTURAL_SIGNATURES["standing"], 4.0)

        def energy(samples):
            acc = np.array([s.accel for s in samples])
            return np.var(acc, axis=0).sum()

        assert energy(walk) > 5 * energy(stand)

    def test_seeded_renders_reproducible(self):
        a = ImuSimulator(seed=7).render(POSTURAL_SIGNATURES["cycling"], 1.0)
        b = ImuSimulator(seed=7).render(POSTURAL_SIGNATURES["cycling"], 1.0)
        assert np.allclose(
            [[s.t, *s.accel, *s.gyro, *s.mag] for s in a],
            [[s.t, *s.accel, *s.gyro, *s.mag] for s in b],
        )

    def test_render_labelled_spans(self):
        imu = ImuSimulator(seed=5)
        samples, spans = imu.render_labelled(
            "gestural", [("silent", 1.0), ("talking", 2.0)]
        )
        assert len(spans) == 2
        assert spans[0] == ("silent", 0.0, 1.0)
        assert spans[1] == ("talking", 1.0, 3.0)
        assert len(samples) == pytest.approx(150, abs=2)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            ImuSimulator(seed=1).render(POSTURAL_SIGNATURES["lying"], 0.0)
