"""Shared utilities: seeded randomness and validation."""

from repro.util.rng import RandomState, derive_rng, ensure_rng
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_prob_vector,
    check_shape,
)

__all__ = [
    "RandomState",
    "derive_rng",
    "ensure_rng",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_prob_vector",
    "check_shape",
]
