"""The array-shaped fit path equals its loop specifications, and a fitted
model's artifact does not depend on the process that fitted it.

The specs live in ``tests/fit_spec.py``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chdbn import fit_object_cpt
from repro.datasets import generate_cace_dataset
from repro.micro.annealing import DeterministicAnnealing
from repro.mining import ConstraintMiner, CorrelationMiner
from repro.mining.context_rules import encode_sequence

from fit_spec import (
    LoopDeterministicAnnealing,
    loop_object_cpt,
    paper_transactions,
    time_t_slice,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def point_sets(draw):
    """``(x, k)``: n points in d dimensions, some rows repeated and maybe
    one constant column, and a cluster count that may exceed n."""
    d = draw(st.integers(1, 7))
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0, size=d)
    if n > 1 and draw(st.booleans()):
        dup = rng.integers(0, n, size=n // 2)
        x[rng.integers(0, n, size=dup.size)] = x[dup]
    if draw(st.booleans()):
        x[:, rng.integers(0, d)] = rng.normal()
    return x, k


class TestAnnealingLayout:
    """The ``(k, n)`` soft-assignment step is the ``(n, k, d)`` one, bit
    for bit, while d and k are below 8."""

    @given(point_sets(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_below_eight(self, case, seed):
        x, k = case
        got = DeterministicAnnealing(n_clusters=k, seed=seed)
        want = LoopDeterministicAnnealing(n_clusters=k, seed=seed)
        g_means, g_labels = got.fit_gaussians(x)
        w_means, w_labels = want.fit_gaussians(x)
        assert np.array_equal(got.centers_, want.centers_)
        assert np.array_equal(g_labels, w_labels)
        assert np.array_equal(g_means, w_means)

    def test_close_at_eight_dimensions(self):
        # From d = 8 numpy sums the (n, k, d) broadcast's inner axis
        # pairwise, so the two layouts may differ in the last bits.
        x = np.random.default_rng(3).normal(size=(120, 8))
        got = DeterministicAnnealing(n_clusters=4, seed=9).fit(x)
        want = LoopDeterministicAnnealing(n_clusters=4, seed=9).fit(x)
        assert got.centers_.shape == want.centers_.shape
        assert np.allclose(got.centers_, want.centers_)


@pytest.fixture(scope="module")
def trio_dataset():
    return generate_cace_dataset(
        n_homes=1, sessions_per_home=1, duration_s=400.0, residents_per_home=3, seed=5
    )


class TestEncodingMemo:
    """``encode_sequence`` is the time-t slice of the paper's two-slice
    transactions, spelled out as ``encode_step`` calls."""

    def test_pair_equals_encode_step(self, cace_dataset):
        seq = cace_dataset.sequences[0]
        assert encode_sequence(seq) == time_t_slice(paper_transactions(seq))

    def test_trio_equals_encode_step(self, trio_dataset):
        seq = trio_dataset.sequences[0]
        got = encode_sequence(seq)
        assert len(got) == len(seq) * 6
        assert got == time_t_slice(paper_transactions(seq))


class TestPaperSchemaRules:
    """Mining the time-t slice gives the rules of the paper's two-slice
    transactions, supports and confidences included, in order."""

    @pytest.mark.parametrize("residents", [2, 3, 4])
    def test_rules_equal_two_slice_spec(self, residents):
        dataset = generate_cace_dataset(
            n_homes=1, sessions_per_home=2, duration_s=900.0,
            residents_per_home=residents, seed=3,
        )
        got = CorrelationMiner().mine(dataset.sequences)
        want = CorrelationMiner().mine_transactions(
            [tx for seq in dataset.sequences for tx in paper_transactions(seq)]
        )
        assert got.forcing_rules
        assert got.forcing_rules == want.forcing_rules
        assert got.exclusions == want.exclusions


class TestObjectCpt:
    def test_equals_loop_spec(self, cace_split, constraint_model):
        train, _ = cace_split
        got_index, got = fit_object_cpt(train, constraint_model)
        want_index, want = loop_object_cpt(train, constraint_model)
        assert got_index == want_index
        assert np.array_equal(got, want)

    def test_trio_equals_loop_spec(self, trio_dataset):
        cm = ConstraintMiner().fit(
            trio_dataset.sequences,
            trio_dataset.macro_vocab,
            trio_dataset.postural_vocab,
            trio_dataset.gestural_vocab,
            trio_dataset.subloc_vocab,
        )
        got_index, got = fit_object_cpt(trio_dataset, cm, alpha=0.5)
        want_index, want = loop_object_cpt(trio_dataset, cm, alpha=0.5)
        assert got_index == want_index
        assert np.array_equal(got, want)


_FIT_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro import CaceEngine, generate_cace_dataset

    for residents in (2, 3):
        data = generate_cace_dataset(
            n_homes=1, sessions_per_home=2, duration_s=900.0,
            residents_per_home=residents, seed=11,
        )
        engine = CaceEngine(strategy="c2", seed=11).fit(data)
        engine.save(f"{sys.argv[1]}/model-{residents}.json")
    """
)


def test_artifacts_do_not_depend_on_string_hashing(tmp_path):
    """Two processes with different ``PYTHONHASHSEED`` write the same
    bytes: nothing in fitting follows set or frozenset iteration order."""
    for hash_seed in ("1", "3"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        subprocess.run(
            [sys.executable, "-c", _FIT_SCRIPT, str(out)], env=env, check=True, timeout=300
        )
    for residents in (2, 3):
        name = f"model-{residents}.json"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()
