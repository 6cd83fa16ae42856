"""Per-resident views over labelled sequences, shared by all recognisers."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.datasets.trace import LabeledSequence


def step_features(seq: LabeledSequence, rid: str) -> np.ndarray:
    """``(T, D)`` continuous emission features for one resident."""
    return np.array([step.observations[rid].features for step in seq.steps], dtype=float)


def observed_postures(seq: LabeledSequence, rid: str) -> List[str]:
    """Observed (noisy) postural labels per step."""
    return [step.observations[rid].posture for step in seq.steps]


def subloc_candidates(seq: LabeledSequence, rid: str) -> List[Tuple[str, ...]]:
    """Per-step sub-location candidate sets for one resident."""
    return [step.observations[rid].subloc_candidates for step in seq.steps]
