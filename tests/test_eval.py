"""Unit + property tests for metrics, confusion matrices, and experiments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval import ConfusionMatrix, accuracy, evaluate_predictions, prc_auc, roc_auc
from repro.eval.experiments import _per_home_accuracy, strip_gestural, strip_location


class TestConfusionMatrix:
    def test_counts_and_accuracy(self):
        cm = ConfusionMatrix(("a", "b"))
        cm.update(["a", "a", "b", "b"], ["a", "b", "b", "b"])
        assert cm.total == 4
        assert cm.accuracy() == pytest.approx(0.75)
        per = cm.per_class()
        assert per["a"]["tp"] == 1 and per["a"]["fn"] == 1
        assert per["b"]["tp"] == 2 and per["b"]["fp"] == 1

    def test_misaligned_rejected(self):
        cm = ConfusionMatrix(("a",))
        with pytest.raises(ValueError):
            cm.update(["a"], [])


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(["a", "b"], ["a", "a"]) == pytest.approx(0.5)
        assert accuracy([], []) == 0.0

    @given(st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_accuracy_bounds(self, labels):
        assert 0.0 <= accuracy(labels, labels) <= 1.0
        assert accuracy(labels, labels) == 1.0

    def test_roc_auc_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positives = np.array([True, True, False, False])
        assert roc_auc(scores, positives) == pytest.approx(1.0)

    def test_roc_auc_random_is_half(self):
        rng = np.random.default_rng(1)
        scores = rng.random(4000)
        positives = rng.random(4000) < 0.5
        assert roc_auc(scores, positives) == pytest.approx(0.5, abs=0.05)

    def test_roc_auc_ties_averaged(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        positives = np.array([True, False, True, False])
        assert roc_auc(scores, positives) == pytest.approx(0.5)

    def test_prc_auc_perfect(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positives = np.array([True, True, False, False])
        assert prc_auc(scores, positives) == pytest.approx(1.0)

    def test_evaluate_predictions_full_report(self):
        truth = ["a", "a", "b", "b", "c"]
        pred = ["a", "b", "b", "b", "c"]
        scores = np.eye(3)[[0, 1, 1, 1, 2]] * 0.9 + 0.05
        report = evaluate_predictions(truth, pred, ["a", "b", "c"], scores)
        assert report.accuracy == pytest.approx(0.8)
        assert report.per_class["a"].recall == pytest.approx(0.5)
        assert report.per_class["b"].precision == pytest.approx(2 / 3)
        assert report.weighted_roc_auc is not None
        assert "Overall" in report.render()

    def test_score_shape_validated(self):
        with pytest.raises(ValueError):
            evaluate_predictions(["a"], ["a"], ["a", "b"], np.zeros((2, 2)))


class TestAblationHelpers:
    def test_strip_gestural(self, cace_dataset):
        stripped = strip_gestural(cace_dataset)
        assert not stripped.has_gestural
        seq = stripped.sequences[0]
        for step in seq.steps:
            for obs in step.observations.values():
                assert obs.gesture is None
                # Neck feature dims zeroed.
                assert obs.features[2] == 0.0 and obs.features[3] == 0.0

    def test_strip_location(self, cace_dataset):
        stripped = strip_location(cace_dataset)
        seq = stripped.sequences[0]
        all_sublocs = set(cace_dataset.subloc_vocab)
        for step in seq.steps:
            assert step.rooms_fired == frozenset()
            for obs in step.observations.values():
                assert set(obs.subloc_candidates) == all_sublocs
                assert obs.position_estimate is None

    def test_strips_preserve_truth(self, cace_dataset):
        for stripped in (strip_gestural(cace_dataset), strip_location(cace_dataset)):
            assert stripped.total_steps == cace_dataset.total_steps
            seq0, seq1 = cace_dataset.sequences[0], stripped.sequences[0]
            rid = seq0.resident_ids[0]
            assert seq0.macro_labels(rid) == seq1.macro_labels(rid)


class TestPerHomeAccuracy:
    def test_pools_every_session_of_a_home(self, cace_dataset):
        """Three equal-length sessions of one home scoring 1, 1 and 0 read
        2/3 (a running pairwise mean of session accuracies reads 0.5)."""
        home, seqs = next(iter(cace_dataset.by_home().items()))
        assert len(seqs) == 3 and len({len(seq) for seq in seqs}) == 1
        right = [{rid: seq.macro_labels(rid) for rid in seq.resident_ids} for seq in seqs]
        wrong = {rid: ["<none>"] * len(seqs[2]) for rid in seqs[2].resident_ids}
        scored = [(seqs[0], right[0]), (seqs[1], right[1]), (seqs[2], wrong)]
        assert _per_home_accuracy(scored) == {home: pytest.approx(2 / 3)}
