"""Factorial CRF — the Wang et al. [5] baseline.

"Dealt with wearable sensor data to exploit the temporal constraints across
two users": a two-chain factorial conditional random field whose factors
are per-node observation potentials (indicator features of the observed
wearable micro context), per-chain temporal transition potentials, and
inter-chain co-temporal potentials.  Decoding is exact over the joint
``(m1, m2)`` space.

**Training substitution:** full CRF maximum likelihood needs the gradient
of the joint chain's log-partition function inside a numerical optimiser;
we train the identical factor graph with the *averaged structured
perceptron* instead, a standard discriminative trainer that needs only
Viterbi decodes and preserves the model family's qualitative behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.trace import Dataset, LabeledSequence
from repro.models.distributions import LabelIndex
from repro.util.rng import RandomState, ensure_rng


@dataclass
class FactorialCrf:
    """Two-chain factorial CRF trained by averaged structured perceptron."""

    epochs: int = 14
    chunk_len: int = 40
    seed: RandomState = None
    macro_index: Optional[LabelIndex] = field(default=None, init=False)
    posture_index: Optional[LabelIndex] = field(default=None, init=False)
    gesture_index: Optional[LabelIndex] = field(default=None, init=False)
    node_w: Optional[np.ndarray] = field(default=None, init=False)  # (M, D)
    trans_w: Optional[np.ndarray] = field(default=None, init=False)  # (M, M)
    pair_w: Optional[np.ndarray] = field(default=None, init=False)  # (M, M)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = ensure_rng(self.seed)

    # -- feature map -------------------------------------------------------------

    def _phi(self, seq: LabeledSequence, rid: str) -> np.ndarray:
        """(T, D) indicator features of the observed wearable context.

        Includes posture and gesture one-hots, their cross products (a
        richer wearable feature map, matching the baseline's multi-modal
        body-sensor features), and a bias.
        """
        n_p = len(self.posture_index)
        n_g = len(self.gesture_index) if self.gesture_index else 0
        dim = n_p + n_g + n_p * max(n_g, 0) + 1
        out = np.zeros((len(seq), dim))
        for t, step in enumerate(seq.steps):
            obs = step.observations[rid]
            p = self.posture_index.index(obs.posture)
            out[t, p] = 1.0
            if n_g and obs.gesture is not None:
                g = self.gesture_index.index(obs.gesture)
                out[t, n_p + g] = 1.0
                out[t, n_p + n_g + p * n_g + g] = 1.0
            out[t, -1] = 1.0  # bias
        return out

    # -- decoding -----------------------------------------------------------------

    def _joint_pieces(self, phi1: np.ndarray, phi2: np.ndarray):
        """``(T, M*M)`` joint node scores and ``(M*M, M*M)`` transition scores."""
        n_m = len(self.macro_index)
        t_len = phi1.shape[0]
        node1 = phi1 @ self.node_w.T  # (T, M)
        node2 = phi2 @ self.node_w.T
        emis = (
            node1[:, :, None] + node2[:, None, :] + self.pair_w[None, :, :]
        ).reshape(t_len, n_m * n_m)
        trans = (
            self.trans_w[:, None, :, None] + self.trans_w[None, :, None, :]
        ).reshape(n_m * n_m, n_m * n_m)
        return emis, trans

    def _decode(self, phi1: np.ndarray, phi2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        from repro.core.kernels import viterbi_path  # lazy: avoid an import cycle

        emis, trans = self._joint_pieces(phi1, phi2)
        # The joint prior is uniform (all zeros), so step 0 is its node scores.
        path = viterbi_path(emis[0], emis, lambda t: trans)
        return np.divmod(path, len(self.macro_index))

    # -- training ------------------------------------------------------------------

    def fit(self, train: Dataset) -> "FactorialCrf":
        """Averaged structured perceptron over resident pairs."""
        self.macro_index = LabelIndex(train.macro_vocab)
        self.posture_index = LabelIndex(train.postural_vocab)
        self.gesture_index = (
            LabelIndex(train.gestural_vocab) if train.has_gestural and train.gestural_vocab else None
        )
        n_m = len(self.macro_index)
        n_p = len(self.posture_index)
        n_g = len(self.gesture_index) if self.gesture_index else 0
        dim = n_p + n_g + n_p * max(n_g, 0) + 1

        self.node_w = np.zeros((n_m, dim))
        self.trans_w = np.zeros((n_m, n_m))
        self.pair_w = np.zeros((n_m, n_m))
        sum_node = np.zeros_like(self.node_w)
        sum_trans = np.zeros_like(self.trans_w)
        sum_pair = np.zeros_like(self.pair_w)
        n_updates = 0

        pairs = []
        for seq in train.sequences:
            if len(seq.resident_ids) < 2 or len(seq) == 0:
                continue
            r1, r2 = seq.resident_ids[:2]
            phi1, phi2 = self._phi(seq, r1), self._phi(seq, r2)
            y1 = self.macro_index.encode(seq.macro_labels(r1))
            y2 = self.macro_index.encode(seq.macro_labels(r2))
            # Chunked training: more perceptron updates per epoch and less
            # error accumulation across very long sessions.
            for start in range(0, len(seq), self.chunk_len):
                end = min(start + self.chunk_len, len(seq))
                if end - start >= 2:
                    pairs.append(
                        (phi1[start:end], phi2[start:end], y1[start:end], y2[start:end])
                    )

        for _ in range(self.epochs):
            order = self._rng.permutation(len(pairs))
            for k in order:
                phi1, phi2, y1, y2 = pairs[k]
                p1, p2 = self._decode(phi1, phi2)
                if np.array_equal(p1, y1) and np.array_equal(p2, y2):
                    n_updates += 1
                    sum_node += self.node_w
                    sum_trans += self.trans_w
                    sum_pair += self.pair_w
                    continue
                for t in range(phi1.shape[0]):
                    for phi, gold, pred in ((phi1, y1, p1), (phi2, y2, p2)):
                        if gold[t] != pred[t]:
                            self.node_w[gold[t]] += phi[t]
                            self.node_w[pred[t]] -= phi[t]
                    if (y1[t], y2[t]) != (p1[t], p2[t]):
                        self.pair_w[y1[t], y2[t]] += 1.0
                        self.pair_w[p1[t], p2[t]] -= 1.0
                    if t > 0:
                        for gold, pred in ((y1, p1), (y2, p2)):
                            if gold[t - 1] != pred[t - 1] or gold[t] != pred[t]:
                                self.trans_w[gold[t - 1], gold[t]] += 1.0
                                self.trans_w[pred[t - 1], pred[t]] -= 1.0
                n_updates += 1
                sum_node += self.node_w
                sum_trans += self.trans_w
                sum_pair += self.pair_w

        if n_updates > 0:
            self.node_w = sum_node / n_updates
            self.trans_w = sum_trans / n_updates
            self.pair_w = sum_pair / n_updates
        return self

    # -- prediction -----------------------------------------------------------------

    def predict(self, seq: LabeledSequence) -> Dict[str, List[str]]:
        """Exact joint decode of both chains."""
        if self.macro_index is None:
            raise RuntimeError("model is not fitted")
        rids = seq.resident_ids[:2]
        if len(rids) < 2:
            raise ValueError("FactorialCrf expects two residents")
        if len(seq) == 0:
            return {rid: [] for rid in rids}
        r1, r2 = rids
        p1, p2 = self._decode(self._phi(seq, r1), self._phi(seq, r2))
        return {
            r1: [self.macro_index.label(i) for i in p1],
            r2: [self.macro_index.label(i) for i in p2],
        }
