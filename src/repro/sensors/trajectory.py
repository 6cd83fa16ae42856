"""Sensor-fusion trajectory generation (paper §VI-D).

The paper computes "3-axis absolute acceleration trajectories" by fusing the
9-axis IMU into an orientation quaternion, high-pass filtering, and rotating
body-frame acceleration into the world frame; pocket-phone motion is further
expressed *relative* to the neck-mounted tag via Eqn 16.  This module
implements that pipeline: a complementary orientation filter (gyro
integration corrected by accel/mag gravity-north references), a first-order
high-pass filter, gravity removal, and the Eqn 16 relative-position
computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.sensors.imu import GRAVITY, ImuSample, MAG_FIELD_WORLD
from repro.sensors.quaternion import Quaternion
from repro.util.validation import check_in_range, check_positive


def high_pass(signal: np.ndarray, sample_rate_hz: float, cutoff_hz: float = 0.3) -> np.ndarray:
    """First-order high-pass filter applied column-wise.

    Used to strip gravity/bias drift from acceleration channels before
    feature extraction, per the paper's "high-band pass filter" step.
    """
    check_positive("sample_rate_hz", sample_rate_hz)
    check_positive("cutoff_hz", cutoff_hz)
    signal = np.atleast_2d(np.asarray(signal, dtype=float))
    transpose = False
    if signal.shape[0] == 1 and signal.ndim == 2:
        # A single row means the caller passed a 1-D signal.
        signal = signal.T
        transpose = True
    dt = 1.0 / sample_rate_hz
    rc = 1.0 / (2 * np.pi * cutoff_hz)
    alpha = rc / (rc + dt)
    out = np.zeros_like(signal)
    out[0] = signal[0] - signal.mean(axis=0)
    for i in range(1, signal.shape[0]):
        out[i] = alpha * (out[i - 1] + signal[i] - signal[i - 1])
    return out.ravel() if transpose else out


@dataclass
class OrientationFilter:
    """Complementary filter estimating orientation from 9-axis samples.

    Gyro rates are integrated for responsiveness; the result is nudged toward
    the accelerometer's gravity direction and the magnetometer's north
    heading with weight ``correction_gain`` for drift-free long-run output.
    """

    sample_rate_hz: float = 50.0
    correction_gain: float = 0.05
    _q: Quaternion = field(default_factory=Quaternion.identity)

    def __post_init__(self) -> None:
        check_positive("sample_rate_hz", self.sample_rate_hz)
        check_in_range("correction_gain", self.correction_gain, 0.0, 1.0)

    def update(self, sample: ImuSample) -> Quaternion:
        """Advance the filter by one sample; returns the new orientation."""
        dt = 1.0 / self.sample_rate_hz
        # Integrate gyro: q' = q * exp(omega * dt / 2).
        omega = np.asarray(sample.gyro, dtype=float)
        angle = float(np.linalg.norm(omega) * dt)
        if angle > 1e-12:
            dq = Quaternion.from_axis_angle(omega, angle)
            self._q = (self._q * dq).normalized()

        # Accel correction: rotate measured "up" toward world up.
        accel = np.asarray(sample.accel, dtype=float)
        a_norm = np.linalg.norm(accel)
        if a_norm > 1e-6:
            up_body = accel / a_norm  # specific force points opposite gravity
            up_world_est = self._q.rotate(up_body)
            target = np.array([0.0, 0.0, 1.0])
            correction_axis = np.cross(up_world_est, target)
            sin_err = np.linalg.norm(correction_axis)
            if sin_err > 1e-9:
                err_angle = float(np.arcsin(np.clip(sin_err, -1, 1)))
                corr = Quaternion.from_axis_angle(
                    correction_axis, self.correction_gain * err_angle
                )
                self._q = (corr * self._q).normalized()

        # Magnetometer correction: align horizontal heading with north.
        mag = np.asarray(sample.mag, dtype=float)
        m_norm = np.linalg.norm(mag)
        if m_norm > 1e-6:
            mag_world = self._q.rotate(mag / m_norm)
            heading = np.array([mag_world[0], mag_world[1], 0.0])
            h_norm = np.linalg.norm(heading)
            north = MAG_FIELD_WORLD[:2]
            north = np.array([north[0], north[1], 0.0])
            n_norm = np.linalg.norm(north)
            if h_norm > 1e-9 and n_norm > 1e-9:
                heading /= h_norm
                north_u = north / n_norm
                axis = np.cross(heading, north_u)
                sin_err = float(np.clip(axis[2], -1, 1))
                if abs(sin_err) > 1e-9:
                    corr = Quaternion.from_axis_angle(
                        np.array([0.0, 0.0, 1.0]),
                        self.correction_gain * np.arcsin(sin_err),
                    )
                    self._q = (corr * self._q).normalized()
        return self._q


def absolute_acceleration(
    samples: Sequence[ImuSample],
    sample_rate_hz: float = 50.0,
    cutoff_hz: float = 0.3,
) -> np.ndarray:
    """World-frame, gravity-free acceleration trajectory ``(n, 3)``.

    This is the "3-axis absolute acceleration trajectory" the paper computes
    from the neck-mounted SensorTag before extracting the 32 features.
    """
    filt = OrientationFilter(sample_rate_hz=sample_rate_hz)
    world = np.zeros((len(samples), 3))
    for i, sample in enumerate(samples):
        q = filt.update(sample)
        world[i] = q.rotate(sample.accel) - np.array([0.0, 0.0, GRAVITY])
    return high_pass(world, sample_rate_hz, cutoff_hz)


def relative_trajectory(
    orientations: Sequence[Quaternion],
    w0: Sequence[float] = (0.0, 1.0, 0.0),
) -> np.ndarray:
    """Eqn 16: position of the phone in the neck tag's frame over time.

    ``w = q_t . w0 . q_t^{-1}`` with ``w0 = 0i + 1j + 0k`` — the phone is
    assumed at unit distance from the neck tag, so its relative position is
    the unit offset rotated by the tag's orientation at each instant.
    """
    w0 = np.asarray(list(w0), dtype=float)
    out = np.zeros((len(orientations), 3))
    for i, q in enumerate(orientations):
        out[i] = q.rotate(w0)
    return out
