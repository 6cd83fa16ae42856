"""Confusion matrices over string-labelled predictions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np


@dataclass
class ConfusionMatrix:
    """Accumulating confusion matrix keyed by label strings."""

    labels: Tuple[str, ...]
    counts: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)
        self._index = {label: i for i, label in enumerate(self.labels)}
        if self.counts is None:
            self.counts = np.zeros((len(self.labels), len(self.labels)), dtype=float)

    def update(self, truth: Sequence[str], predicted: Sequence[str]) -> None:
        """Add aligned truth/prediction pairs."""
        if len(truth) != len(predicted):
            raise ValueError("truth and predictions must align")
        for g, p in zip(truth, predicted):
            self.counts[self._index[g], self._index[p]] += 1

    @property
    def total(self) -> float:
        """Total scored instances."""
        return float(self.counts.sum())

    def accuracy(self) -> float:
        """Micro accuracy: trace / total."""
        total = self.total
        return float(np.trace(self.counts) / total) if total else 0.0

    def per_class(self) -> Dict[str, Dict[str, float]]:
        """tp/fp/fn/tn counts per class."""
        out: Dict[str, Dict[str, float]] = {}
        total = self.total
        for i, label in enumerate(self.labels):
            tp = self.counts[i, i]
            fn = self.counts[i].sum() - tp
            fp = self.counts[:, i].sum() - tp
            tn = total - tp - fn - fp
            out[label] = {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
        return out
