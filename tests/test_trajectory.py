"""Unit tests for sensor fusion and trajectory generation."""

import numpy as np
import pytest

from repro.sensors.imu import POSTURAL_SIGNATURES, ImuSimulator
from repro.sensors.trajectory import (
    OrientationFilter,
    absolute_acceleration,
    high_pass,
    relative_trajectory,
)


class TestHighPass:
    def test_removes_dc_offset(self):
        t = np.arange(500) / 50.0
        signal = 5.0 + np.sin(2 * np.pi * 3.0 * t)
        filtered = high_pass(signal, 50.0, cutoff_hz=0.5)
        assert abs(np.mean(filtered[100:])) < 0.05

    def test_preserves_high_frequency_amplitude(self):
        t = np.arange(1000) / 50.0
        signal = np.sin(2 * np.pi * 5.0 * t)
        filtered = high_pass(signal, 50.0, cutoff_hz=0.3)
        assert np.std(filtered[200:]) == pytest.approx(np.std(signal[200:]), rel=0.1)

    def test_multichannel(self):
        data = np.random.default_rng(0).normal(size=(100, 3)) + 10.0
        filtered = high_pass(data, 50.0)
        assert filtered.shape == (100, 3)
        assert np.all(np.abs(filtered.mean(axis=0)) < 1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            high_pass(np.zeros(10), 0.0)
        with pytest.raises(ValueError):
            high_pass(np.zeros(10), 50.0, cutoff_hz=0.0)


class TestOrientationFilter:
    @pytest.mark.parametrize("posture", ["standing", "sitting"])
    def test_static_convergence(self, posture):
        imu = ImuSimulator(seed=4)
        samples = imu.render(POSTURAL_SIGNATURES[posture], 5.0)
        filt = OrientationFilter()
        for s in samples:
            q = filt.update(s)
        up_est = q.rotate(samples[-1].accel / np.linalg.norm(samples[-1].accel))
        # The estimated world-frame "up" should be close to +z.
        assert up_est[2] > 0.9

    def test_invalid_gain(self):
        with pytest.raises(ValueError):
            OrientationFilter(correction_gain=1.5)


class TestAbsoluteAcceleration:
    def test_static_posture_is_near_zero(self):
        imu = ImuSimulator(seed=5)
        samples = imu.render(POSTURAL_SIGNATURES["lying"], 4.0)
        traj = absolute_acceleration(samples)
        assert traj.shape == (len(samples), 3)
        # After gravity removal + high-pass, static lying is near zero.
        assert np.abs(traj[100:]).mean() < 0.5

    def test_walking_energy_visible(self):
        imu = ImuSimulator(seed=6)
        walk = absolute_acceleration(imu.render(POSTURAL_SIGNATURES["walking"], 4.0))
        lie = absolute_acceleration(imu.render(POSTURAL_SIGNATURES["lying"], 4.0))
        assert np.var(walk[100:]) > 5 * np.var(lie[100:])


class TestRelativeTrajectory:
    def test_orientation_count_preserved(self):
        imu = ImuSimulator(seed=7)
        samples = imu.render(POSTURAL_SIGNATURES["sitting"], 1.0)
        filt = OrientationFilter()
        qs = [filt.update(s) for s in samples]
        traj = relative_trajectory(qs)
        assert len(qs) == len(samples)
        assert traj.shape == (len(samples), 3)
        assert np.allclose(np.linalg.norm(traj, axis=1), 1.0, atol=1e-9)
