"""Shared probabilistic building blocks.

:class:`LabelIndex` maps label strings to dense indices; :class:`Cpt` is a
smoothed conditional probability table over arbitrary conditioning shapes;
:class:`GaussianEmission` implements the multivariate-Gaussian observation
model of Augmentation 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np


def normalize(arr: np.ndarray, axis: int = -1) -> np.ndarray:
    """Normalise *arr* to sum to 1 along *axis* (uniform where empty)."""
    arr = np.asarray(arr, dtype=float)
    total = arr.sum(axis=axis, keepdims=True)
    n = arr.shape[axis]
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(total > 0, arr / np.where(total > 0, total, 1.0), 1.0 / n)
    return out


@dataclass
class LabelIndex:
    """Bidirectional mapping between labels and dense integer indices."""

    labels: Tuple[str, ...]
    _index: Dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)
        self._index = {label: i for i, label in enumerate(self.labels)}
        if len(self._index) != len(self.labels):
            raise ValueError("duplicate labels in index")

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        """Dense index of *label*."""
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}; known: {self.labels}") from None

    def label(self, idx: int) -> str:
        """Label at dense index *idx*."""
        return self.labels[idx]

    def encode(self, labels: Iterable[str]) -> np.ndarray:
        """Vectorised :meth:`index`."""
        return np.array([self.index(lb) for lb in labels], dtype=int)


@dataclass
class Cpt:
    """Smoothed conditional probability table ``P(child | parents)``.

    ``shape`` is ``(*parent_cards, child_card)``; counts accumulate via
    :meth:`observe` and :meth:`probabilities` applies Laplace smoothing.
    """

    shape: Tuple[int, ...]
    alpha: float = 0.5
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.shape) < 1:
            raise ValueError("Cpt needs at least the child dimension")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.counts = np.zeros(self.shape, dtype=float)

    def observe(self, *indices: int, weight: float = 1.0) -> None:
        """Add *weight* to the cell addressed by parent+child indices."""
        if len(indices) != len(self.shape):
            raise ValueError(f"expected {len(self.shape)} indices, got {len(indices)}")
        self.counts[indices] += weight

    def probabilities(self) -> np.ndarray:
        """Laplace-smoothed probabilities along the last (child) axis."""
        return normalize(self.counts + self.alpha, axis=-1)


def shrink_coupled_transitions(
    coupled_counts: np.ndarray, kappa: float = 20.0, alpha: float = 0.5
) -> np.ndarray:
    """Hierarchical shrinkage of ``P(m' | m, partner)`` toward ``P(m' | m)``.

    Coupled transition tables are cubic in the macro cardinality and most
    (m, partner) contexts are rarely observed; raw Laplace smoothing makes
    unseen rows near-uniform, which hurts decoding badly.  Each context row
    is therefore blended with the marginal (uncoupled) row using weight
    ``n / (n + kappa)`` where ``n`` is the context's observation count.
    """
    coupled_counts = np.asarray(coupled_counts, dtype=float)
    if coupled_counts.ndim != 3:
        raise ValueError(f"expected (M, M, M) counts, got {coupled_counts.shape}")
    uncoupled = normalize(coupled_counts.sum(axis=1) + alpha, axis=-1)
    context_n = coupled_counts.sum(axis=2, keepdims=True)
    lam = context_n / (context_n + kappa)
    coupled = normalize(coupled_counts + 1e-9, axis=-1)
    return lam * coupled + (1.0 - lam) * uncoupled[:, None, :]


@dataclass
class GaussianEmission:
    """Multivariate Gaussian observation model per discrete state.

    Augmentation 4: observations are continuous feature vectors drawn from
    a Gaussian whose parameters depend on the micro-level state.  Unseen
    states fall back to the pooled distribution.
    """

    dim: int
    means: Dict[int, np.ndarray] = field(default_factory=dict)
    covariances: Dict[int, np.ndarray] = field(default_factory=dict)
    _pooled_mean: Optional[np.ndarray] = field(default=None, repr=False)
    _pooled_cov: Optional[np.ndarray] = field(default=None, repr=False)
    _cached_inv: Dict[int, Tuple[np.ndarray, float]] = field(default_factory=dict, repr=False)

    def fit(self, features: np.ndarray, states: Sequence[int], min_count: int = 3) -> "GaussianEmission":
        """Fit per-state Gaussians; sparse states share the pooled model."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        states = np.asarray(states, dtype=int)
        if features.shape[0] != states.shape[0]:
            raise ValueError("features and states must align")
        if features.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {features.shape[1]}")

        self._pooled_mean = features.mean(axis=0)
        pooled = np.cov(features.T) if features.shape[0] > 1 else np.eye(self.dim)
        self._pooled_cov = np.atleast_2d(pooled) + 1e-4 * np.eye(self.dim)

        self.means.clear()
        self.covariances.clear()
        self._cached_inv.clear()
        for state in np.unique(states):
            members = features[states == state]
            if members.shape[0] >= min_count:
                cov = np.atleast_2d(np.cov(members.T)) + 1e-4 * np.eye(self.dim)
                self.means[int(state)] = members.mean(axis=0)
                self.covariances[int(state)] = cov
        return self

    def _inv_logdet(self, state: int) -> Tuple[np.ndarray, float]:
        if state in self._cached_inv:
            return self._cached_inv[state]
        cov = self.covariances.get(state, self._pooled_cov)
        if cov is None:
            cov = np.eye(self.dim)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            cov = cov + 1e-3 * np.eye(self.dim)
            sign, logdet = np.linalg.slogdet(cov)
        inv = np.linalg.inv(cov)
        self._cached_inv[state] = (inv, logdet)
        return inv, logdet

    def log_pdf_rows(self, states: Sequence[int], x_rows: np.ndarray) -> np.ndarray:
        """(T, |states|) log densities for a stacked batch of observations.

        One quadratic-form einsum per state over all rows; each row is
        independent of the batch it comes in (the one-observation scalar
        form is ``decode_spec.gaussian_log_pdf`` in the tests).
        """
        x_rows = np.atleast_2d(np.asarray(x_rows, dtype=float))
        states = list(states)
        out = np.empty((x_rows.shape[0], len(states)))
        for j, state in enumerate(states):
            state = int(state)
            mean = self.means.get(state, self._pooled_mean)
            if mean is None:
                mean = np.zeros(self.dim)
            inv, logdet = self._inv_logdet(state)
            diffs = x_rows - mean[None, :]
            quads = np.einsum("ti,ij,tj->t", diffs, inv, diffs)
            out[:, j] = -0.5 * (self.dim * np.log(2 * np.pi) + logdet + quads)
        return out
