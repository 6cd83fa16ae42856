"""DecodeStats accounting fixes + hot-path equivalence regression tests.

Covers the decode-overhaul guarantees:

* ``pruned_joint_states`` counts only joint candidates *actually removed*
  by correlation pruning (the all-pruned fallback reports zero), and the
  emission-score cap is accounted separately in ``capped_joint_states``;
* the streaming :class:`~repro.core.smoother.OnlineSmoother` performs the
  same accounting as offline decoding, into its own ``stats``;
* models are re-entrant: trellis sessions count into the DecodeStats they
  were built with, so interleaved session sets (and offline decodes in
  between) never mix their counters;
* the optimised hot path (precomputed encodings, rule matrices, object
  baseline) reproduces the seed implementation bit-for-bit on labels and
  to 1e-10 on posterior marginals (``tests/decode_spec.py`` is the
  seed's executable spec);
* single-user rule pruning is slot-invariant: resident 2 is pruned
  against the same canonicalised rules as resident 1.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.api import DecodeStats
from repro.core.chdbn import build_candidate_set
from repro.core.engine import CaceEngine
from repro.core.kernels import SequenceKernel
from repro.core.loosely_coupled import PAIR_CAPS, NChainHdbn
from repro.core.rule_kernel import CrossRulePruner
from repro.core.smoother import OnlineSmoother
from repro.mining.context_rules import Item
from repro.mining.correlation_miner import CorrelationRuleSet
from repro.mining.rules import AssociationRule

from decode_spec import reference_model

#: The c2 pair configuration under test (pair caps, 20 states per user).
PAIR = dict(PAIR_CAPS, max_states_per_user=20)


@pytest.fixture(scope="module")
def fitted(cace_split, constraint_model, rule_set):
    train, _ = cace_split
    model = NChainHdbn(
        constraint_model=constraint_model, rule_set=rule_set, seed=3, **PAIR
    )
    model.fit(train)
    return model


class TestPrunedCountAccounting:
    def test_all_pruned_fallback_counts_zero(self, cace_split, fitted, monkeypatch):
        """When every joint state fails the rules, nothing is dropped — and
        the counter must say so (the seed inflated the Fig 11 metric here)."""
        _, test = cace_split
        seq = test.sequences[0].slice(0, 5)
        monkeypatch.setattr(
            CrossRulePruner,
            "keep",
            lambda self, amb, c1, c2: np.zeros(
                (len(c1), len(c2)), dtype=bool
            ),
        )
        # A multi-step decode builds its steps' masks in one stacked call.
        monkeypatch.setattr(
            CrossRulePruner,
            "keep_rows",
            lambda self, ambs, c1, c2: np.zeros(
                c1.m.shape + c2.m.shape[1:], dtype=bool
            ),
        )
        stats = DecodeStats()
        fitted.decode(seq, stats)
        assert stats.pruned_joint_states == 0
        assert stats.joint_states > 0

    def test_partial_prune_counts_removed_pairs(self, cace_split, fitted, monkeypatch):
        """The counter equals the number of joint states the mask removed."""
        _, test = cace_split
        seq = test.sequences[0].slice(0, 1)
        dropped = {}

        def half_mask(self, amb, c1, c2):
            keep = np.ones((len(c1), len(c2)), dtype=bool)
            keep[0, :] = False  # drop every joint state with u1's candidate 0
            dropped["n"] = int((~keep).sum())
            return keep

        monkeypatch.setattr(CrossRulePruner, "keep", half_mask)
        stats = DecodeStats()
        fitted.decode(seq, stats)
        assert stats.pruned_joint_states == dropped["n"]

    def test_cap_accounted_separately(self, cace_split, fitted):
        _, test = cace_split
        seq = test.sequences[0].slice(0, 10)
        stats = DecodeStats()
        fitted.decode(seq, stats)
        # Survivors + cap drops add up to the post-rule-pruning pool.
        assert stats.capped_joint_states >= 0
        assert stats.joint_states <= stats.steps * fitted.max_joint_states_pruned

    def test_merge_accumulates_every_field(self):
        a = DecodeStats(2, 10, 100, 3, 1)
        b = DecodeStats(1, 5, 50, 2, 4)
        a.merge(b)
        assert (a.steps, a.joint_states, a.transition_entries) == (3, 15, 150)
        assert (a.pruned_joint_states, a.capped_joint_states) == (5, 5)


class TestSmootherAccounting:
    def test_streaming_stats_match_offline(self, cace_split, fitted):
        """push() performs the same accounting offline decode does, into
        the smoother's own stats."""
        _, test = cace_split
        seq = test.sequences[0].slice(0, 25)
        offline = DecodeStats()
        fitted.decode(seq, offline)
        smoother = OnlineSmoother(fitted, lag=4)
        smoother.run(seq)
        online = smoother.stats
        assert online.steps == offline.steps == len(seq)
        assert online.joint_states == offline.joint_states
        assert online.transition_entries == offline.transition_entries
        assert online.pruned_joint_states == offline.pruned_joint_states
        assert online.capped_joint_states == offline.capped_joint_states

    def test_streaming_mean_joint_states_positive(self, cace_split, fitted):
        _, test = cace_split
        seq = test.sequences[0].slice(0, 12)
        smoother = OnlineSmoother(fitted, lag=3)
        smoother.run(seq)
        assert smoother.stats.steps == len(seq)
        assert smoother.stats.mean_joint_states > 1


class TestReentrancy:
    def test_interleaved_session_sets_keep_solo_counts(self, cace_split, fitted):
        """Two session sets over one model, each counting into its own
        DecodeStats and stepped interleaved with an offline decode in
        between, each report exactly their solo-run counts."""
        _, test = cace_split
        steps = 15
        seqs = [test.sequences[0].slice(0, steps), test.sequences[1].slice(0, steps)]

        def advance(sessions, t):
            for sess in sessions:
                sess.piece(t)

        solo = []
        for seq in seqs:
            stats = DecodeStats()
            sessions = fitted.trellis_sessions(seq, stats)
            for t in range(steps):
                advance(sessions, t)
            solo.append(stats)
        assert all(s.pruned_joint_states + s.capped_joint_states > 0 for s in solo)

        stats = [DecodeStats(), DecodeStats()]
        sets = [fitted.trellis_sessions(seq, st) for seq, st in zip(seqs, stats)]
        for t in range(steps):
            for sessions in sets:
                advance(sessions, t)
            if t == steps // 2:
                fitted.decode(test.sequences[0])
        assert stats == solo


class TestHotPathEquivalence:
    def test_decode_labels_identical(self, cace_split, fitted):
        _, test = cace_split
        reference = reference_model(fitted)
        for seq in test.sequences:
            fast_stats, ref_stats = DecodeStats(), DecodeStats()
            assert fitted.decode(seq, fast_stats) == reference.decode(seq, ref_stats)
            assert fast_stats == ref_stats

    def test_posterior_marginals_close(self, cace_split, fitted):
        _, test = cace_split
        seq = test.sequences[0].slice(0, 30)
        fast = fitted.posterior_marginals(seq)
        ref = reference_model(fitted).posterior_marginals(seq)
        for rid in ref:
            np.testing.assert_allclose(fast[rid], ref[rid], atol=1e-10)

    def test_unpruned_decode_identical(self, cace_split, constraint_model):
        """The NCS configuration (no rules) must match too."""
        train, test = cace_split
        fast = NChainHdbn(
            constraint_model=constraint_model, rule_set=None, seed=3, **PAIR
        ).fit(train)
        seq = test.sequences[0].slice(0, 40)
        assert fast.decode(seq) == reference_model(fast).decode(seq)


class TestSlotInvariance:
    def _u2_rule_set(self):
        rule = AssociationRule(
            antecedent=frozenset([Item("u2", "t", "subloc", "SR1")]),
            consequent=Item("u2", "t", "macro", "exercising"),
            support=0.5,
            confidence=1.0,
        )
        return CorrelationRuleSet(forcing_rules=[rule], exclusions=[])

    def test_single_user_canonicalises_slots_to_u1(self):
        """single_user() rewrites every user slot to u1, so checking both
        residents' hypotheses against slot-u1 items is correct."""
        single = self._u2_rule_set().single_user()
        assert len(single.forcing_rules) == 1
        rule = single.forcing_rules[0]
        assert {i.slot for i in rule.antecedent} == {"u1"}
        assert rule.consequent.slot == "u1"

    def test_both_residents_pruned_identically(self, cace_split, fitted):
        """With identical observations, resident 2's candidates are pruned
        exactly like resident 1's — no u1-only bias."""
        _, test = cace_split
        seq = test.sequences[0]
        rids = seq.resident_ids[:2]
        # Make resident 2's observation identical to resident 1's.
        step = seq.steps[0]
        obs = step.observations[rids[0]]
        twin_step = dataclasses.replace(step, observations={rids[0]: obs, rids[1]: obs})
        twin = dataclasses.replace(seq.slice(0, 1), steps=[twin_step])
        kern = SequenceKernel(fitted, twin, rids)
        kern.ensure(0, 1)
        c1 = build_candidate_set(fitted, twin, rids[0], 0, kern)
        c2 = build_candidate_set(fitted, twin, rids[1], 0, kern)
        np.testing.assert_array_equal(c1.m, c2.m)
        np.testing.assert_array_equal(c1.l, c2.l)
        np.testing.assert_array_equal(c1.emissions, c2.emissions)


class TestNcrPosteriorMarginals:
    def test_engine_exposes_ncr_marginals(self, cace_split):
        train, test = cace_split
        engine = CaceEngine(strategy="ncr", max_states_per_user=16, seed=9)
        engine.fit(train)
        seq = test.sequences[0].slice(0, 15)
        marginals = engine.posterior_marginals(seq)
        assert set(marginals) == set(seq.resident_ids)
        for gamma in marginals.values():
            assert gamma.shape == (len(seq), len(train.macro_vocab))
            assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-6)
            assert (gamma >= 0).all()


class TestBatchedDecode:
    def test_serial_aggregates_stats(self, cace_split):
        train, test = cace_split
        engine = CaceEngine(strategy="c2", max_states_per_user=16, seed=9)
        engine.fit(train)
        out = engine.predict_dataset(test)
        assert len(out) == len(test.sequences)
        assert engine.batch_stats_.steps == test.total_steps

    def test_workers_match_serial(self, cace_split):
        train, test = cace_split
        engine = CaceEngine(strategy="c2", max_states_per_user=16, seed=9)
        engine.fit(train)
        serial = engine.predict_dataset(test)
        serial_stats = engine.batch_stats_
        parallel = engine.predict_dataset(test, workers=2)
        assert parallel == serial
        assert engine.batch_stats_ == serial_stats
