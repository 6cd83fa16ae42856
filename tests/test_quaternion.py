"""Unit + property tests for quaternion algebra (Eqn 16 substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors import Quaternion

angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
components = st.floats(min_value=-10, max_value=10, allow_nan=False)


def unit_quaternions():
    return st.builds(
        lambda w, x, y, z: Quaternion(w, x, y, z),
        components, components, components, components,
    ).filter(lambda q: q.norm() > 1e-3).map(lambda q: q.normalized())


def vectors():
    return st.tuples(components, components, components).filter(
        lambda v: np.linalg.norm(v) > 1e-6
    )


class TestBasics:
    def test_identity_rotation(self):
        v = Quaternion.identity().rotate([1.0, 2.0, 3.0])
        assert np.allclose(v, [1, 2, 3])

    def test_90deg_z_rotation(self):
        q = Quaternion.from_axis_angle([0, 0, 1], np.pi / 2)
        assert np.allclose(q.rotate([1, 0, 0]), [0, 1, 0], atol=1e-12)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            Quaternion.from_axis_angle([0, 0, 0], 1.0)

    def test_zero_quaternion_has_no_inverse(self):
        with pytest.raises(ValueError):
            Quaternion(0, 0, 0, 0).inverse()

    def test_rotate_requires_3_vector(self):
        with pytest.raises(ValueError):
            Quaternion.identity().rotate([1.0, 2.0])

    def test_euler_roundtrip_yaw(self):
        q = Quaternion.from_euler(0.0, 0.0, np.pi / 3)
        angle = 2.0 * np.arccos(q.w)
        axis = np.array([q.x, q.y, q.z]) / np.sin(angle / 2.0)
        assert np.allclose(axis, [0, 0, 1], atol=1e-9)
        assert angle == pytest.approx(np.pi / 3)


class TestProperties:
    @given(unit_quaternions(), vectors())
    @settings(max_examples=60, deadline=None)
    def test_rotation_preserves_norm(self, q, v):
        rotated = q.rotate(list(v))
        assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(v), rel=1e-6)

    @given(unit_quaternions(), unit_quaternions(), vectors())
    @settings(max_examples=60, deadline=None)
    def test_composition_matches_sequential_rotation(self, q1, q2, v):
        combined = (q1 * q2).rotate(list(v))
        sequential = q1.rotate(q2.rotate(list(v)))
        assert np.allclose(combined, sequential, atol=1e-8)

    @given(unit_quaternions())
    @settings(max_examples=60, deadline=None)
    def test_inverse_composes_to_identity(self, q):
        prod = q * q.inverse()
        assert prod.w == pytest.approx(1.0, abs=1e-9)
        assert abs(prod.x) < 1e-9 and abs(prod.y) < 1e-9 and abs(prod.z) < 1e-9

    @given(unit_quaternions(), vectors())
    @settings(max_examples=60, deadline=None)
    def test_rotation_matrix_agrees_with_sandwich(self, q, v):
        via_matrix = q.to_rotation_matrix() @ np.asarray(v)
        via_sandwich = q.rotate(list(v))
        assert np.allclose(via_matrix, via_sandwich, atol=1e-8)

    @given(unit_quaternions())
    @settings(max_examples=60, deadline=None)
    def test_rotation_matrix_is_orthogonal(self, q):
        r = q.to_rotation_matrix()
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-8)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-8)


class TestEqn16:
    def test_relative_position_unit_norm(self):
        from repro.sensors.trajectory import relative_trajectory

        qs = [
            Quaternion.from_axis_angle([0, 0, 1], a)
            for a in np.linspace(0, np.pi, 20)
        ]
        traj = relative_trajectory(qs)
        assert traj.shape == (20, 3)
        assert np.allclose(np.linalg.norm(traj, axis=1), 1.0, atol=1e-9)
