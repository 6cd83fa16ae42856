"""Tests for the beyond-the-paper extensions: N>2 residents, online
fixed-lag smoothing, and missing-modality robustness."""

import numpy as np
import pytest

from repro.core.api import DecodeStats
from repro.core.engine import CaceEngine
from repro.core.loosely_coupled import NChainHdbn
from repro.core.smoother import OnlineSmoother
from repro.datasets.cace import generate_cace_dataset
from repro.datasets.trace import (
    ContextStep,
    LabeledSequence,
    ResidentObservation,
    train_test_split,
)
from repro.util.artifacts import engine_from_dict, engine_to_dict, load_engine, save_engine


@pytest.fixture(scope="module")
def trio_dataset():
    return generate_cace_dataset(
        n_homes=2,
        sessions_per_home=3,
        duration_s=2700.0,
        residents_per_home=3,
        seed=91,
    )


@pytest.fixture(scope="module")
def pair_split():
    ds = generate_cace_dataset(
        n_homes=2, sessions_per_home=4, duration_s=2400.0, seed=92
    )
    return train_test_split(ds, 0.7, seed=1)


@pytest.fixture(scope="module")
def fitted_pair_engine(pair_split):
    train, _ = pair_split
    engine = CaceEngine(strategy="c2", seed=5)
    engine.fit(train)
    return engine


@pytest.fixture(scope="module")
def trio_split(trio_dataset):
    return train_test_split(trio_dataset, 0.7, seed=2)


@pytest.fixture(scope="module")
def fitted_trio_engine(trio_split):
    train, _ = trio_split
    return CaceEngine(strategy="c2", seed=3).fit(train)


def _caps(model):
    return (model.max_states_per_user, model.max_joint_states, model.max_joint_states_pruned)


class TestThreeResidents:
    def test_generator_emits_three_residents(self, trio_dataset):
        for seq in trio_dataset.sequences:
            assert len(seq.resident_ids) == 3
            for step in seq.steps:
                assert set(step.observations) == set(seq.resident_ids)

    def test_engine_selects_nchain(self, fitted_trio_engine):
        assert isinstance(fitted_trio_engine.model_, NChainHdbn)

    def test_decode_labels_every_resident_and_step(
        self, trio_dataset, trio_split, fitted_trio_engine
    ):
        _, test = trio_split
        seq = test.sequences[0]
        pred = fitted_trio_engine.predict(seq)
        assert set(pred) == set(seq.resident_ids)
        for rid in seq.resident_ids:
            assert len(pred[rid]) == len(seq)
            assert all(m in trio_dataset.macro_vocab for m in pred[rid])

    def test_three_resident_accuracy_beats_chance(self, trio_split, fitted_trio_engine):
        _, test = trio_split
        correct = n = 0
        for seq in test.sequences:
            pred = fitted_trio_engine.predict(seq)
            for rid in seq.resident_ids:
                truth = seq.macro_labels(rid)
                correct += sum(a == b for a, b in zip(truth, pred[rid]))
                n += len(truth)
        assert correct / n > 0.4  # chance is ~1/11

    def test_marginals_normalised_per_step(self, trio_dataset, trio_split, fitted_trio_engine):
        _, test = trio_split
        seq = test.sequences[0]
        marginals = fitted_trio_engine.posterior_marginals(seq)
        for rid in seq.resident_ids:
            assert marginals[rid].shape == (len(seq), len(trio_dataset.macro_vocab))
            assert np.allclose(marginals[rid].sum(axis=1), 1.0, atol=1e-6)

    def test_ncs_strategy_also_supports_trios(self, trio_split):
        train, test = trio_split
        engine = CaceEngine(strategy="ncs", seed=3)
        engine.fit(train)
        assert isinstance(engine.model_, NChainHdbn)
        assert engine.model_.rule_set is None
        pred = engine.predict(test.sequences[0])
        assert set(pred) == set(test.sequences[0].resident_ids)


class TestJointCaps:
    """A rule-pruned model keeps at most 100 joint states per step at every
    N; the per-user and ``ncs`` caps still differ between pairs and 3+
    chains, and a loaded artifact keeps the caps it stores."""

    def test_trio_caps(self, fitted_trio_engine):
        assert _caps(fitted_trio_engine.model_) == (24, 1200, 100)

    def test_pair_caps(self, fitted_pair_engine):
        assert _caps(fitted_pair_engine.model_) == (
            fitted_pair_engine.max_states_per_user, 2000, 100
        )

    def test_trio_batch_decode_keeps_at_most_100_joint_states(
        self, trio_split, fitted_trio_engine
    ):
        _, test = trio_split
        fitted_trio_engine.predict_dataset(test)
        stats = fitted_trio_engine.batch_stats_
        assert stats.steps == sum(len(seq) for seq in test.sequences)
        assert stats.joint_states <= stats.steps * 100

    def test_trio_lag_window_blocks_are_at_most_100_square(
        self, trio_split, fitted_trio_engine
    ):
        _, test = trio_split
        seq = test.sequences[0]
        smoother = OnlineSmoother(fitted_trio_engine.model_, lag=4)
        smoother.start(seq)
        shapes = set()
        for t in range(len(seq)):
            smoother.push(t)
            shapes.update(b.E.shape for blocks in smoother._trans for b in blocks if b)
        assert shapes and max(max(shape) for shape in shapes) <= 100

    def test_stored_cap_of_300_loads_and_decodes_at_300(
        self, trio_split, fitted_trio_engine, tmp_path
    ):
        _, test = trio_split
        seq = test.sequences[0]
        wide = engine_from_dict(engine_to_dict(fitted_trio_engine))
        wide.model_.max_joint_states_pruned = 300
        path = tmp_path / "trio-300.json"
        save_engine(wide, path)
        assert engine_to_dict(wide)["model"]["config"]["max_joint_states_pruned"] == 300
        loaded = load_engine(path)
        assert _caps(loaded.model_) == (24, 1200, 300)

        def decode(model):
            stats = DecodeStats()
            return model.decode(seq, stats), stats

        labels_300, stats_300 = decode(wide.model_)
        assert decode(loaded.model_) == (labels_300, stats_300)
        _, stats_100 = decode(fitted_trio_engine.model_)
        assert stats_100.joint_states < stats_300.joint_states


class TestOnlineSmoother:
    def test_full_lag_matches_offline_marginals(self, fitted_pair_engine, pair_split):
        _, test = pair_split
        seq = test.sequences[0].slice(0, 40)
        model = fitted_pair_engine.model_
        assert isinstance(model, NChainHdbn)
        smoother = OnlineSmoother(model, lag=len(seq))
        online = smoother.run(seq)
        marginals = model.posterior_marginals(seq)
        cm = model.constraint_model
        for rid in seq.resident_ids[:2]:
            offline = [
                cm.macro_index.label(int(np.argmax(marginals[rid][t])))
                for t in range(len(seq))
            ]
            assert online[rid] == offline

    def test_output_covers_every_step(self, fitted_pair_engine, pair_split):
        _, test = pair_split
        seq = test.sequences[0].slice(0, 30)
        smoother = OnlineSmoother(fitted_pair_engine.model_, lag=4)
        out = smoother.run(seq)
        for rid in seq.resident_ids[:2]:
            assert len(out[rid]) == len(seq)

    def test_small_lag_close_to_offline_accuracy(self, fitted_pair_engine, pair_split):
        _, test = pair_split
        seq = test.sequences[0]
        model = fitted_pair_engine.model_
        offline = model.decode(seq)
        online = OnlineSmoother(model, lag=4).run(seq)
        for rid in seq.resident_ids[:2]:
            truth = seq.macro_labels(rid)
            acc_off = np.mean([a == b for a, b in zip(truth, offline[rid])])
            acc_on = np.mean([a == b for a, b in zip(truth, online[rid])])
            assert acc_on > acc_off - 0.15

    def test_push_requires_ordered_steps(self, fitted_pair_engine, pair_split):
        _, test = pair_split
        seq = test.sequences[0]
        smoother = OnlineSmoother(fitted_pair_engine.model_, lag=2)
        smoother.start(seq)
        smoother.push(0)
        with pytest.raises(ValueError):
            smoother.push(2)

    def test_lag_zero_is_filtering(self, fitted_pair_engine, pair_split):
        _, test = pair_split
        seq = test.sequences[0].slice(0, 20)
        smoother = OnlineSmoother(fitted_pair_engine.model_, lag=0)
        smoother.start(seq)
        committed = smoother.push(0)
        assert committed is not None and set(committed) == set(seq.resident_ids[:2])


def _strip_channel(seq: LabeledSequence, channel: str, fraction: float, rng) -> LabeledSequence:
    """Null out one wearable channel on a random fraction of steps."""
    steps = []
    for step in seq.steps:
        observations = {}
        for rid, obs in step.observations.items():
            if rng.random() < fraction:
                if channel == "posture":
                    obs = ResidentObservation(
                        posture=None,
                        gesture=obs.gesture,
                        features=obs.features,
                        subloc_candidates=obs.subloc_candidates,
                        position_estimate=obs.position_estimate,
                    )
                elif channel == "features":
                    obs = ResidentObservation(
                        posture=obs.posture,
                        gesture=obs.gesture,
                        features=tuple(float("nan") for _ in obs.features),
                        subloc_candidates=obs.subloc_candidates,
                        position_estimate=obs.position_estimate,
                    )
            observations[rid] = obs
        steps.append(
            ContextStep(step.t, observations, step.rooms_fired, step.objects_fired, step.sublocs_fired)
        )
    return LabeledSequence(seq.home_id, seq.resident_ids, seq.step_s, steps, seq.truths)


class TestMissingModalities:
    @pytest.mark.parametrize("channel", ["posture", "features"])
    def test_decode_survives_dropped_channel(
        self, fitted_pair_engine, pair_split, channel
    ):
        _, test = pair_split
        rng = np.random.default_rng(4)
        seq = _strip_channel(test.sequences[0], channel, fraction=0.5, rng=rng)
        pred = fitted_pair_engine.predict(seq)
        for rid in seq.resident_ids:
            assert len(pred[rid]) == len(seq)

    def test_degradation_is_graceful(self, fitted_pair_engine, pair_split):
        _, test = pair_split
        rng = np.random.default_rng(4)
        seq = test.sequences[0]
        truth = {rid: seq.macro_labels(rid) for rid in seq.resident_ids}
        base = fitted_pair_engine.predict(seq)
        degraded_seq = _strip_channel(seq, "posture", fraction=0.7, rng=rng)
        degraded = fitted_pair_engine.predict(degraded_seq)

        def acc(pred):
            pairs = [
                (a, b)
                for rid in seq.resident_ids
                for a, b in zip(truth[rid], pred[rid])
            ]
            return np.mean([a == b for a, b in pairs])

        # Losing a channel must not collapse the recogniser (the emission
        # factorisation marginalises the missing term exactly).
        assert acc(degraded) > acc(base) - 0.25
        assert acc(degraded) > 0.3
