"""Unit tests for repro.util."""

import numpy as np
import pytest

from repro.util import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_prob_vector,
    check_shape,
    derive_rng,
    ensure_rng,
)


class TestRng:
    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1000, 10)
        b = ensure_rng(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert ensure_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_bad_seed_type(self):
        with pytest.raises(TypeError):
            ensure_rng("not-a-seed")

    def test_derive_rng_streams_differ(self):
        root_a = ensure_rng(1)
        root_b = ensure_rng(1)
        child_x = derive_rng(root_a, "x")
        child_y = derive_rng(root_b, "y")
        assert not np.array_equal(
            child_x.integers(0, 10**9, 8), child_y.integers(0, 10**9, 8)
        )

    def test_derive_rng_reproducible(self):
        a = derive_rng(ensure_rng(5), "stream").integers(0, 10**9, 4)
        b = derive_rng(ensure_rng(5), "stream").integers(0, 10**9, 4)
        assert np.array_equal(a, b)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ValueError):
            check_non_negative("x", -0.1)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                check_probability("p", bad)

    def test_check_in_range(self):
        assert check_in_range("v", 3, 1, 5) == 3
        with pytest.raises(ValueError):
            check_in_range("v", 9, 1, 5)

    def test_check_prob_vector(self):
        vec = check_prob_vector("v", np.array([0.25, 0.75]))
        assert vec.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            check_prob_vector("v", np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            check_prob_vector("v", np.array([[0.5, 0.5]]))

    def test_check_shape(self):
        arr = check_shape("a", np.zeros((3, 2)), (3, 2))
        assert arr.shape == (3, 2)
        check_shape("a", np.zeros((7, 2)), (-1, 2))
        with pytest.raises(ValueError):
            check_shape("a", np.zeros((3, 3)), (3, 2))

