"""Unit + integration tests for the CACE core (state space, HDBNs, engine)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CaceEngine,
    NChainHdbn,
    PruningStrategy,
    STRATEGIES,
    SingleUserHdbn,
    StateSpaceBuilder,
    duration_error,
    extract_segments,
    match_segments,
)
from repro.core.api import DecodeStats
from repro.core.duration import Segment
from repro.core.loosely_coupled import PAIR_CAPS
from repro.mining.initial_rules import initial_rule_set

from decode_spec import UserState, candidate_states, state_item_set

#: The coupled pair HDBN: the 2-chain model with the pair caps.
PAIR = dict(PAIR_CAPS, max_states_per_user=20)


class TestStateSpaceBuilder:
    def test_candidates_cover_truth(self, cace_split, constraint_model):
        train, _ = cace_split
        builder = StateSpaceBuilder(constraint_model, max_states_per_user=120)
        seq = train.sequences[0]
        rid = seq.resident_ids[0]
        hits = total = 0
        for step, truth in zip(seq.steps, seq.truths):
            states = candidate_states(builder, step.observations[rid])
            total += 1
            hits += UserState(truth[rid].macro, truth[rid].subloc) in states
        assert hits / total > 0.9

    def test_candidates_never_empty(self, cace_split, constraint_model):
        train, _ = cace_split
        builder = StateSpaceBuilder(constraint_model, max_states_per_user=30)
        seq = train.sequences[0]
        for step in seq.steps:
            for rid in seq.resident_ids:
                assert candidate_states(builder, step.observations[rid])

    def test_cap_respected(self, cace_split, constraint_model):
        # The builder guarantees one state per macro, so the effective cap
        # is max(max_states_per_user, n_macro).
        train, _ = cace_split
        builder = StateSpaceBuilder(constraint_model, max_states_per_user=10)
        seq = train.sequences[0]
        obs = seq.steps[0].observations[seq.resident_ids[0]]
        states = candidate_states(builder, obs)
        assert len(states) <= max(10, constraint_model.n_macro)

    def test_every_macro_represented(self, cace_split, constraint_model):
        # A macro must never be silently unreachable: PIR misses would
        # otherwise cap attainable accuracy from the candidate stage alone.
        train, _ = cace_split
        builder = StateSpaceBuilder(constraint_model, max_states_per_user=30)
        seq = train.sequences[0]
        for step in seq.steps[:20]:
            for rid in seq.resident_ids:
                macros = {s.macro for s in candidate_states(builder, step.observations[rid])}
                assert macros == set(constraint_model.macro_index.labels)

    def test_item_sets_include_state_and_observation(self, cace_split):
        train, _ = cace_split
        seq = train.sequences[0]
        obs = seq.steps[0].observations[seq.resident_ids[0]]
        items = state_item_set("u1", UserState("dining", "SR4"), obs)
        attrs = {i.attr for i in items}
        assert {"macro", "posture", "subloc", "room"} <= attrs
        values = {i.value for i in items}
        assert "dining" in values and "SR4" in values


class TestDuration:
    def test_paper_example(self):
        # Cooking 10:05-10:35 true vs 10:10-10:39 predicted -> 9/30 = 30%.
        truth = [Segment("cooking", 300.0, 2100.0)]
        predicted = [Segment("cooking", 600.0, 2340.0)]
        matches = match_segments(truth, predicted)
        true_seg, match = matches[0]
        err = (abs(match.start - true_seg.start) + abs(match.end - true_seg.end)) / true_seg.duration
        assert err == pytest.approx(0.3)

    def test_extract_segments(self):
        labels = ["a", "a", "b", "b", "b", "a"]
        segments = extract_segments(labels, 15.0)
        assert segments == [
            Segment("a", 0.0, 30.0),
            Segment("b", 30.0, 75.0),
            Segment("a", 75.0, 90.0),
        ]

    def test_perfect_prediction_zero_error(self):
        labels = ["a"] * 5 + ["b"] * 5
        assert duration_error(labels, labels, 15.0, exclude=()) == 0.0

    def test_unmatched_segment_counts_as_miss(self):
        truth = ["a"] * 4 + ["b"] * 4
        predicted = ["a"] * 4 + ["c"] * 4
        err = duration_error(truth, predicted, 15.0, exclude=())
        assert err == pytest.approx(0.5)  # "a" perfect, "b" fully missed

    def test_overrun_prediction_penalised(self):
        truth = ["a"] * 4 + ["b"] * 4
        predicted = ["a"] * 8  # "a" overruns by the whole "b" segment
        err = duration_error(truth, predicted, 15.0, exclude=())
        assert err == pytest.approx(1.0)

    def test_random_class_excluded(self):
        truth = ["random"] * 4
        predicted = ["a"] * 4
        assert duration_error(truth, predicted, 15.0) == 0.0

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_identity_has_zero_error(self, labels):
        assert duration_error(labels, labels, 15.0, exclude=()) == 0.0

    def test_misaligned_sequences_rejected(self):
        with pytest.raises(ValueError):
            duration_error(["a"], ["a", "b"], 15.0)


class TestPruningStrategy:
    def test_all_strategies_valid(self):
        for name in STRATEGIES:
            PruningStrategy(name)

    def test_capabilities(self):
        assert PruningStrategy("c2").uses_correlations
        assert not PruningStrategy("nh").uses_correlations

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            PruningStrategy("magic")


class TestCoupledHdbn:
    @pytest.fixture(scope="class")
    def fitted(self, cace_split, constraint_model, rule_set):
        train, _ = cace_split
        model = NChainHdbn(
            constraint_model=constraint_model,
            rule_set=rule_set,
            seed=3,
            **PAIR,
        )
        model.fit(train)
        return model

    def test_decode_outputs_valid_labels(self, cace_split, fitted):
        _, test = cace_split
        seq = test.sequences[0]
        pred = fitted.decode(seq)
        for rid in seq.resident_ids[:2]:
            assert len(pred[rid]) == len(seq)
            assert set(pred[rid]) <= set(fitted.constraint_model.macro_index.labels)

    def test_stats_populated(self, cace_split, fitted):
        _, test = cace_split
        stats = DecodeStats()
        fitted.decode(test.sequences[0], stats)
        assert stats.steps == len(test.sequences[0])
        assert stats.joint_states > 0
        assert stats.mean_joint_states > 1

    def test_pruning_shrinks_the_trellis(self, cace_split, constraint_model, rule_set):
        train, test = cace_split
        pruned = NChainHdbn(
            constraint_model=constraint_model, rule_set=rule_set, seed=3, **PAIR
        ).fit(train)
        unpruned = NChainHdbn(
            constraint_model=constraint_model, rule_set=None, seed=3, **PAIR
        ).fit(train)
        seq = test.sequences[0]
        pruned_stats, unpruned_stats = DecodeStats(), DecodeStats()
        pruned.decode(seq, pruned_stats)
        unpruned.decode(seq, unpruned_stats)
        assert pruned_stats.joint_states <= unpruned_stats.joint_states

    def test_posterior_marginals_normalised(self, cace_split, fitted):
        _, test = cace_split
        seq = test.sequences[0].slice(0, 25)
        marginals = fitted.posterior_marginals(seq)
        for gamma in marginals.values():
            assert gamma.shape == (25, 11)
            assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-6)

    def test_single_resident_rejected(self, cace_split, fitted):
        _, test = cace_split
        seq = test.sequences[0]
        lone = type(seq)(
            home_id=seq.home_id,
            resident_ids=seq.resident_ids[:1],
            step_s=seq.step_s,
            steps=seq.steps,
            truths=seq.truths,
        )
        with pytest.raises(ValueError):
            fitted.decode(lone)


class TestSingleUserHdbn:
    def test_decode_all_residents(self, cace_split, constraint_model, rule_set):
        train, test = cace_split
        model = SingleUserHdbn(
            constraint_model=constraint_model, rule_set=rule_set,
            max_states_per_user=20, seed=5,
        ).fit(train)
        seq = test.sequences[0]
        pred = model.decode(seq)
        assert set(pred) == set(seq.resident_ids)
        for labels in pred.values():
            assert len(labels) == len(seq)

    def test_frame_wise_mode(self, cace_split, constraint_model, rule_set):
        train, test = cace_split
        model = SingleUserHdbn(
            constraint_model=constraint_model, rule_set=rule_set,
            max_states_per_user=20, seed=5,
        ).fit(train)
        seq = test.sequences[0]
        labels = model.decode(seq)[seq.resident_ids[0]]
        assert len(labels) == len(seq)
        sess = model.trellis_sessions(seq)[0]
        piece = sess.piece(0)
        assert sess.transition(piece, sess.piece(1)) is None
        assert np.array_equal(sess.initial_alpha(piece), piece.scores)


class TestEngine:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_runs(self, cace_split, strategy):
        train, test = cace_split
        engine = CaceEngine(strategy=strategy, max_states_per_user=16, seed=9)
        engine.fit(train)
        seq = test.sequences[0]
        pred = engine.predict(seq)
        for rid in pred:
            assert len(pred[rid]) == len(seq)
        assert engine.build_seconds > 0
        assert engine.decode_seconds > 0

    def test_build_and_decode_wall_clock(self, cace_split, tmp_path):
        train, test = cace_split
        engine = CaceEngine(strategy="c2", max_states_per_user=16, seed=9)
        engine.fit(train)
        assert engine.build_seconds > 0
        assert engine.decode_seconds == 0.0
        engine.predict(test.sequences[0])
        after_predict = engine.decode_seconds
        assert after_predict > 0
        engine.predict_dataset(test, workers=1)
        after_batch = engine.decode_seconds
        assert after_batch > after_predict
        with pytest.raises(TypeError):
            engine.predict(None)  # a call that raises is timed too
        assert engine.decode_seconds > after_batch
        engine.save(tmp_path / "model.json")
        loaded = CaceEngine.load(tmp_path / "model.json")
        assert loaded.build_seconds == 0.0
        assert loaded.decode_seconds == 0.0
        engine.fit(train)
        assert engine.build_seconds > 0
        assert engine.decode_seconds == 0.0

    def test_c2_beats_nh(self, cace_split):
        train, test = cace_split

        def accuracy(strategy):
            engine = CaceEngine(strategy=strategy, max_states_per_user=16, seed=9)
            engine.fit(train)
            hits = total = 0
            for seq in test.sequences:
                pred = engine.predict(seq)
                for rid in pred:
                    gold = seq.macro_labels(rid)
                    hits += sum(p == g for p, g in zip(pred[rid], gold))
                    total += len(gold)
            return hits / total

        # On the scaled-down fixture corpus the flat HMM can get lucky, so
        # the ordering is asserted with a small tolerance; the full-shape
        # claim (C2 >> NH by ~20 points) is benchmarked in fig11.
        assert accuracy("c2") > accuracy("nh") - 0.02

    def test_initial_rules_accepted(self, cace_split):
        train, test = cace_split
        engine = CaceEngine(
            strategy="c2", initial_rules=initial_rule_set(),
            max_states_per_user=16, seed=9,
        )
        engine.fit(train)
        assert engine.rule_set_ is not None
        assert engine.rule_set_.n_rules >= initial_rule_set().n_rules
        engine.predict(test.sequences[0])

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize(
        "family, field",
        [
            ("engine", "max_states_per_user"),
            ("ncr", "max_states_per_user"),
            ("nchain", "max_states_per_user"),
            ("nchain", "max_joint_states"),
            ("nchain", "max_joint_states_pruned"),
        ],
    )
    def test_caps_below_one_rejected_at_construction(
        self, constraint_model, family, field, value
    ):
        """A cap below 1 is a ValueError naming the field when the object
        is built, not an empty argmax at decode time."""
        build = {
            "engine": lambda **kw: CaceEngine(**kw),
            "ncr": lambda **kw: SingleUserHdbn(constraint_model=constraint_model, **kw),
            "nchain": lambda **kw: NChainHdbn(constraint_model=constraint_model, **kw),
        }[family]
        with pytest.raises(ValueError, match=f"^{field} "):
            build(**{field: value})

    def test_predict_before_fit_raises(self, cace_split):
        _, test = cace_split
        with pytest.raises(RuntimeError):
            CaceEngine().predict(test.sequences[0])

    def test_posterior_for_c2(self, cace_split):
        train, test = cace_split
        engine = CaceEngine(strategy="c2", max_states_per_user=16, seed=9)
        engine.fit(train)
        seq = test.sequences[0].slice(0, 20)
        marginals = engine.posterior_marginals(seq)
        for gamma in marginals.values():
            assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-6)

    def test_casas_mode_no_gestural(self, casas_dataset):
        from repro.datasets import train_test_split

        train, test = train_test_split(casas_dataset, 0.5, seed=3)
        engine = CaceEngine(strategy="c2", max_states_per_user=16, seed=9)
        engine.fit(train)
        pred = engine.predict(test.sequences[0])
        for labels in pred.values():
            assert set(labels) <= set(casas_dataset.macro_vocab)
