"""Unit tests for dataset generation, containers, and discretisation."""

import numpy as np
import pytest

from repro.datasets import (
    CASAS_TASKS,
    MicroObservationModel,
    train_test_split,
)
from repro.datasets.casas import SHARED_TASKS
from repro.datasets.observation import FEATURE_NAMES


class TestCaceDataset:
    def test_shapes(self, cace_dataset):
        assert len(cace_dataset) == 6  # 2 homes x 3 sessions
        assert cace_dataset.total_steps == 6 * 100
        assert cace_dataset.has_gestural
        assert len(cace_dataset.macro_vocab) == 11
        assert len(cace_dataset.subloc_vocab) == 14

    def test_observations_complete(self, cace_dataset):
        seq = cace_dataset.sequences[0]
        for step, truth in zip(seq.steps, seq.truths):
            for rid in seq.resident_ids:
                obs = step.observations[rid]
                assert obs.posture in cace_dataset.postural_vocab
                assert obs.gesture in cace_dataset.gestural_vocab
                assert len(obs.features) == len(FEATURE_NAMES)
                assert len(obs.subloc_candidates) >= 1
                assert truth[rid].macro in cace_dataset.macro_vocab

    def test_candidate_recall_is_high(self, cace_dataset):
        hits = total = 0
        for seq in cace_dataset.sequences:
            for step, truth in zip(seq.steps, seq.truths):
                for rid in seq.resident_ids:
                    total += 1
                    hits += truth[rid].subloc in step.observations[rid].subloc_candidates
        assert hits / total > 0.95

    def test_macro_labels_align(self, cace_dataset):
        seq = cace_dataset.sequences[0]
        rid = seq.resident_ids[0]
        labels = seq.macro_labels(rid)
        assert len(labels) == len(seq)
        assert labels[0] == seq.truths[0][rid].macro

    def test_sequence_slice(self, cace_dataset):
        seq = cace_dataset.sequences[0]
        sub = seq.slice(10, 20)
        assert len(sub) == 10
        assert sub.steps[0].t == seq.steps[10].t


class TestCasasDataset:
    def test_no_gestural_channel(self, casas_dataset):
        assert not casas_dataset.has_gestural
        seq = casas_dataset.sequences[0]
        for step in seq.steps:
            for obs in step.observations.values():
                assert obs.gesture is None
                assert obs.position_estimate is None

    def test_fifteen_tasks(self, casas_dataset):
        assert len(CASAS_TASKS) == 15
        assert set(SHARED_TASKS) <= set(CASAS_TASKS)
        assert casas_dataset.macro_vocab == CASAS_TASKS

    def test_all_tasks_performed(self, casas_dataset):
        seq = casas_dataset.sequences[0]
        for rid in seq.resident_ids:
            performed = set(seq.macro_labels(rid))
            assert performed == set(CASAS_TASKS)

    def test_shared_tasks_are_simultaneous(self, casas_dataset):
        seq = casas_dataset.sequences[0]
        r1, r2 = seq.resident_ids
        l1, l2 = seq.macro_labels(r1), seq.macro_labels(r2)
        for shared in SHARED_TASKS:
            steps1 = {i for i, lb in enumerate(l1) if lb == shared}
            steps2 = {i for i, lb in enumerate(l2) if lb == shared}
            if steps1 and steps2:
                overlap = len(steps1 & steps2) / max(len(steps1 | steps2), 1)
                assert overlap > 0.6, shared


class TestSplit:
    def test_split_partitions_sequences(self, cace_dataset):
        train, test = train_test_split(cace_dataset, 0.67, seed=5)
        assert len(train) + len(test) == len(cace_dataset)
        train_ids = {id(s) for s in train.sequences}
        test_ids = {id(s) for s in test.sequences}
        assert not train_ids & test_ids

    def test_each_home_in_both_sides(self, cace_dataset):
        train, test = train_test_split(cace_dataset, 0.67, seed=5)
        assert set(train.by_home()) == set(test.by_home())

    def test_invalid_fraction(self, cace_dataset):
        with pytest.raises(ValueError):
            train_test_split(cace_dataset, 1.0)

    def test_split_reproducible(self, cace_dataset):
        a = train_test_split(cace_dataset, 0.67, seed=5)
        b = train_test_split(cace_dataset, 0.67, seed=5)
        assert [s.home_id for s in a[0].sequences] == [s.home_id for s in b[0].sequences]


class TestObservationModel:
    def test_posture_accuracy_calibration(self):
        model = MicroObservationModel(seed=1)
        n = 4000
        hits = sum(model.observe_posture("sitting") == "sitting" for _ in range(n))
        assert hits / n == pytest.approx(0.986, abs=0.02)

    def test_gesture_accuracy_calibration(self):
        model = MicroObservationModel(seed=2)
        n = 4000
        hits = sum(model.observe_gesture("talking") == "talking" for _ in range(n))
        assert hits / n == pytest.approx(0.953, abs=0.02)

    def test_confusions_are_plausible(self):
        model = MicroObservationModel(posture_accuracy=0.0, seed=3)
        observed = {model.observe_posture("sitting") for _ in range(100)}
        assert observed <= {"standing", "lying"}

    def test_feature_means_differ_by_class(self):
        model = MicroObservationModel(seed=4)
        walking = model.emission_mean("walking", "silent")
        lying = model.emission_mean("lying", "silent")
        assert np.linalg.norm(walking - lying) > 0.5

    def test_features_drift_is_bounded(self):
        model = MicroObservationModel(seed=5)
        samples = np.array(
            [model.sample_features("sitting", "silent", drift_key="r") for _ in range(300)]
        )
        mean = model.emission_mean("sitting", "silent")
        # Drift + noise wander but stay anchored to the class mean.
        assert np.linalg.norm(samples.mean(axis=0) - mean) < 3.0
