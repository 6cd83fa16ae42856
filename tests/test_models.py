"""Unit + property tests for distributions, Viterbi, and baselines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from repro.models import (
    CoupledHmm,
    Cpt,
    FactorialCrf,
    GaussianEmission,
    LabelIndex,
    MacroHmm,
    normalize,
)
from repro.models.distributions import shrink_coupled_transitions

from dense_spec import forward_backward, viterbi_decode


class TestLabelIndex:
    def test_roundtrip(self):
        idx = LabelIndex(("a", "b", "c"))
        assert idx.index("b") == 1
        assert idx.label(2) == "c"
        assert len(idx) == 3
        assert "a" in idx and "z" not in idx

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            LabelIndex(("a", "a"))

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            LabelIndex(("a",)).index("b")

    def test_encode(self):
        idx = LabelIndex(("x", "y"))
        assert np.array_equal(idx.encode(["y", "x", "y"]), [1, 0, 1])


class TestCpt:
    def test_laplace_smoothing(self):
        cpt = Cpt((2, 3), alpha=1.0)
        cpt.observe(0, 1)
        probs = cpt.probabilities()
        assert probs.shape == (2, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs[0, 1] == pytest.approx(2 / 4)
        assert probs[1, 0] == pytest.approx(1 / 3)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            Cpt((2, 2)).observe(0)

    def test_shrink_coupled_transitions(self):
        counts = np.zeros((3, 3, 3))
        counts[0, 0, 1] = 100  # well-observed context
        shrunk = shrink_coupled_transitions(counts, kappa=10.0)
        assert np.allclose(shrunk.sum(axis=2), 1.0)
        # Heavily observed context follows its own counts.
        assert shrunk[0, 0, 1] > 0.8
        # Unobserved context follows the marginal row for state 0.
        assert shrunk[0, 2, 1] > shrunk[0, 2, 2]


class TestNormalize:
    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_normalize_sums_to_one(self, values):
        out = normalize(np.array(values))
        assert out.sum() == pytest.approx(1.0)

    def test_normalize_empty_rows_uniform(self):
        out = normalize(np.zeros((2, 4)))
        assert np.allclose(out, 0.25)


class TestGaussianEmission:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        states = rng.integers(0, 2, 200)
        emission = GaussianEmission(dim=3).fit(x, states)
        probe = np.array([0.1, -0.2, 0.3])
        for s in (0, 1):
            expected = multivariate_normal(
                emission.means[s], emission.covariances[s]
            ).logpdf(probe)
            assert emission.log_pdf_rows([s], probe)[0, 0] == pytest.approx(expected, rel=1e-6)

    def test_unseen_state_uses_pooled(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 2))
        emission = GaussianEmission(dim=2).fit(x, np.zeros(50, dtype=int))
        assert np.isfinite(emission.log_pdf_rows([99], np.zeros(2))).all()

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            GaussianEmission(dim=3).fit(np.zeros((5, 2)), np.zeros(5, dtype=int))


def _random_hmm(rng, n_states=3, t_len=6):
    prior = rng.dirichlet(np.ones(n_states))
    trans = rng.dirichlet(np.ones(n_states), size=n_states)
    log_e = rng.normal(size=(t_len, n_states))
    return np.log(prior), np.log(trans), log_e


def _brute_force_viterbi(log_prior, log_trans, log_e):
    t_len, n = log_e.shape
    best_score, best_path = -np.inf, None
    paths = [[s] for s in range(n)]
    for _ in range(t_len - 1):
        paths = [p + [s] for p in paths for s in range(n)]
    for path in paths:
        score = log_prior[path[0]] + log_e[0, path[0]]
        for t in range(1, t_len):
            score += log_trans[path[t - 1], path[t]] + log_e[t, path[t]]
        if score > best_score:
            best_score, best_path = score, path
    return np.array(best_path), best_score


class TestViterbi:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        log_prior, log_trans, log_e = _random_hmm(rng, n_states=3, t_len=5)
        path, score = viterbi_decode(log_prior, log_trans, log_e)
        bf_path, bf_score = _brute_force_viterbi(log_prior, log_trans, log_e)
        assert score == pytest.approx(bf_score, rel=1e-9)
        # Paths may tie; scores must agree, and our path must achieve it.
        check = log_prior[path[0]] + log_e[0, path[0]]
        for t in range(1, len(path)):
            check += log_trans[path[t - 1], path[t]] + log_e[t, path[t]]
        assert check == pytest.approx(bf_score, rel=1e-9)

    def test_empty_sequence(self):
        path, score = viterbi_decode(np.zeros(2), np.zeros((2, 2)), np.empty((0, 2)))
        assert len(path) == 0

    def test_forward_backward_marginals_sum_to_one(self):
        rng = np.random.default_rng(5)
        log_prior, log_trans, log_e = _random_hmm(rng, n_states=4, t_len=8)
        gamma, ll = forward_backward(log_prior, log_trans, log_e)
        assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(ll)

    def test_forward_backward_matches_enumeration(self):
        rng = np.random.default_rng(6)
        log_prior, log_trans, log_e = _random_hmm(rng, n_states=2, t_len=4)
        gamma, ll = forward_backward(log_prior, log_trans, log_e)
        # Brute-force marginals.
        t_len, n = log_e.shape
        paths = [[a, b, c, d] for a in range(n) for b in range(n) for c in range(n) for d in range(n)]
        scores = []
        for path in paths:
            s = log_prior[path[0]] + log_e[0, path[0]]
            for t in range(1, t_len):
                s += log_trans[path[t - 1], path[t]] + log_e[t, path[t]]
            scores.append(s)
        weights = np.exp(scores - max(scores))
        weights /= weights.sum()
        marg0 = sum(w for w, p in zip(weights, paths) if p[0] == 0)
        assert gamma[0, 0] == pytest.approx(marg0, abs=1e-9)
        log_z = max(scores) + np.log(np.exp(np.array(scores) - max(scores)).sum())
        assert ll == pytest.approx(log_z, rel=1e-9)


class TestBaselineModels:
    def test_macro_hmm_predicts_valid_labels(self, cace_split):
        train, test = cace_split
        model = MacroHmm().fit(train)
        pred = model.predict(test.sequences[0])
        seq = test.sequences[0]
        for rid in seq.resident_ids:
            assert len(pred[rid]) == len(seq)
            assert set(pred[rid]) <= set(train.macro_vocab)

    def test_macro_hmm_beats_chance(self, cace_split):
        train, test = cace_split
        model = MacroHmm().fit(train)
        hits = total = 0
        for seq in test.sequences:
            pred = model.predict(seq)
            for rid in seq.resident_ids:
                gold = seq.macro_labels(rid)
                hits += sum(p == g for p, g in zip(pred[rid], gold))
                total += len(gold)
        assert hits / total > 2.0 / len(train.macro_vocab)

    def test_macro_hmm_posteriors_normalised(self, cace_split):
        train, test = cace_split
        model = MacroHmm().fit(train)
        proba = model.posterior_marginals(test.sequences[0])
        for gamma in proba.values():
            assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-6)

    def test_coupled_hmm_shapes(self, cace_split):
        train, test = cace_split
        model = CoupledHmm().fit(train)
        seq = test.sequences[0]
        pred = model.predict(seq)
        assert set(pred) == set(seq.resident_ids[:2])
        for labels in pred.values():
            assert len(labels) == len(seq)
            assert set(labels) <= set(train.macro_vocab)

    def test_fcrf_fits_and_predicts(self, cace_split):
        train, test = cace_split
        model = FactorialCrf(epochs=3, seed=1).fit(train)
        seq = test.sequences[0]
        pred = model.predict(seq)
        for rid in seq.resident_ids[:2]:
            assert len(pred[rid]) == len(seq)

    @pytest.mark.parametrize("name", ["nh", "chmm", "fcrf"])
    def test_empty_sequence_decodes_to_empty_lists(self, baselines, cace_split, name):
        seq = cace_split[1].sequences[0].slice(0, 0)
        assert baselines[name].predict(seq) == {rid: [] for rid in seq.resident_ids}

    @pytest.mark.parametrize("name", ["chmm", "fcrf"])
    def test_pair_baselines_reject_one_resident(self, baselines, cace_split, name):
        seq = cace_split[1].sequences[0]
        seq = dataclasses.replace(seq, resident_ids=seq.resident_ids[:1])
        with pytest.raises(ValueError, match="expects two residents"):
            baselines[name].predict(seq)

    def test_unfitted_models_raise(self, cace_split):
        _, test = cace_split
        seq = test.sequences[0]
        with pytest.raises(RuntimeError):
            MacroHmm().predict(seq)
        with pytest.raises(RuntimeError):
            CoupledHmm().predict(seq)
        with pytest.raises(RuntimeError):
            FactorialCrf().predict(seq)
