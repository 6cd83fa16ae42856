"""Shared fixtures: small cached corpora so the suite stays fast."""

from __future__ import annotations

import pytest

from repro.datasets import generate_cace_dataset, generate_casas_dataset, train_test_split
from repro.mining import ConstraintMiner, CorrelationMiner
from repro.models import CoupledHmm, FactorialCrf, MacroHmm


@pytest.fixture(scope="session")
def cace_dataset():
    """A small two-home CACE-style corpus (shared across the session)."""
    return generate_cace_dataset(
        n_homes=2, sessions_per_home=3, duration_s=1500.0, seed=1234
    )


@pytest.fixture(scope="session")
def cace_split(cace_dataset):
    """(train, test) split of the small corpus."""
    return train_test_split(cace_dataset, 0.67, seed=99)


@pytest.fixture(scope="session")
def casas_dataset():
    """A small CASAS-style corpus (no gestural channel)."""
    return generate_casas_dataset(
        n_pairs=2, sessions_per_pair=2, duration_scale=0.25, seed=321
    )


@pytest.fixture(scope="session")
def constraint_model(cace_split):
    """Constraint model mined from the small training split."""
    train, _ = cace_split
    return ConstraintMiner().fit(
        train.sequences,
        train.macro_vocab,
        train.postural_vocab,
        train.gestural_vocab,
        train.subloc_vocab,
    )


@pytest.fixture(scope="session")
def rule_set(cace_split):
    """Correlation rules mined from the small training split."""
    train, _ = cace_split
    return CorrelationMiner(min_support=0.03).mine(train.sequences)


@pytest.fixture(scope="session")
def baselines(cace_split):
    """The Fig 10 baselines, fitted once on the small training split."""
    train, _ = cace_split
    return {
        "nh": MacroHmm().fit(train),
        "chmm": CoupledHmm().fit(train),
        "fcrf": FactorialCrf(epochs=3, seed=1).fit(train),
        # All-zero weights: every score ties, as in the perceptron's
        # first decodes, so only the argmax tie-break picks the path.
        "fcrf_zero": FactorialCrf(epochs=0).fit(train),
    }
