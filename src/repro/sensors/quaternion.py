"""Unit-quaternion algebra for 9-axis IMU orientation.

The paper represents device orientation as quaternions and computes the
smartphone position relative to the neck-mounted SensorTag frame as
``w = q_t . w0 . q_t^{-1}`` (Eqn 16).  This module provides exactly the
operations that computation needs: Hamilton products, conjugation,
normalisation, vector rotation, axis-angle and Euler construction, and
rotation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class Quaternion:
    """A quaternion ``q = w + x*i + y*j + z*k`` (scalar-first convention)."""

    w: float
    x: float
    y: float
    z: float

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity() -> "Quaternion":
        """The rotation-free quaternion."""
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis: Iterable[float], angle: float) -> "Quaternion":
        """Quaternion rotating by *angle* radians around *axis*."""
        ax = np.asarray(list(axis), dtype=float)
        norm = np.linalg.norm(ax)
        if norm == 0:
            raise ValueError("rotation axis must be non-zero")
        ax = ax / norm
        half = angle / 2.0
        s = np.sin(half)
        return Quaternion(float(np.cos(half)), float(ax[0] * s), float(ax[1] * s), float(ax[2] * s))

    @staticmethod
    def from_euler(roll: float, pitch: float, yaw: float) -> "Quaternion":
        """Quaternion from intrinsic Z-Y-X Euler angles (radians)."""
        cr, sr = np.cos(roll / 2), np.sin(roll / 2)
        cp, sp = np.cos(pitch / 2), np.sin(pitch / 2)
        cy, sy = np.cos(yaw / 2), np.sin(yaw / 2)
        return Quaternion(
            float(cr * cp * cy + sr * sp * sy),
            float(sr * cp * cy - cr * sp * sy),
            float(cr * sp * cy + sr * cp * sy),
            float(cr * cp * sy - sr * sp * cy),
        )

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        """Hamilton product ``self * other``."""
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def conjugate(self) -> "Quaternion":
        """``q* = w - xi - yj - zk``."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        """Euclidean magnitude ``|q|``."""
        return float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))

    def normalized(self) -> "Quaternion":
        """Unit quaternion with the same orientation."""
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalise the zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse ``q^{-1} = q* / |q|^2``."""
        n2 = self.norm() ** 2
        if n2 == 0:
            raise ValueError("the zero quaternion has no inverse")
        c = self.conjugate()
        return Quaternion(c.w / n2, c.x / n2, c.y / n2, c.z / n2)

    # -- geometry ----------------------------------------------------------

    def rotate(self, vec: Iterable[float]) -> np.ndarray:
        """Rotate a 3-vector: the Eqn 16 sandwich ``q . (0, v) . q^{-1}``."""
        v = np.asarray(list(vec), dtype=float)
        if v.shape != (3,):
            raise ValueError(f"expected a 3-vector, got shape {v.shape}")
        p = Quaternion(0.0, float(v[0]), float(v[1]), float(v[2]))
        out = self * p * self.inverse()
        return np.array([out.x, out.y, out.z])

    def to_rotation_matrix(self) -> np.ndarray:
        """3x3 rotation matrix of the (normalised) quaternion."""
        q = self.normalized()
        w, x, y, z = q.w, q.x, q.y, q.z
        return np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
