"""Per-user flat macro HMM — the Singla et al. [9] baseline.

"Built an individual HMM model for each user": one chain per resident over
the 11 macro activities, Gaussian emissions directly on the per-frame
wearable feature vector, no hierarchy, no location reasoning, no coupling.
This is also the paper's **NH** (Naive-HMM) pruning strategy: the full
macro state space with frame features directly labelled by macro activity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.trace import Dataset, LabeledSequence
from repro.models.distributions import Cpt, GaussianEmission, LabelIndex
from repro.models.inputs import step_features


@dataclass
class MacroHmm:
    """Flat HMM over macro activities, one independent chain per resident.

    Implements the :class:`~repro.core.api.Recognizer` surface (``decode``,
    ``posterior_marginals``, ``trellis_sessions``, ``describe``) so the
    engine and the serving layer treat the baseline exactly like the HDBN
    families.  Imports from
    :mod:`repro.core` stay lazy: this module is imported by the engine, so
    a top-level import would cycle through ``repro.core.__init__``.
    """

    alpha: float = 0.5
    macro_index: Optional[LabelIndex] = field(default=None, init=False)
    prior_: Optional[np.ndarray] = field(default=None, init=False)
    trans_: Optional[np.ndarray] = field(default=None, init=False)
    emission_: Optional[GaussianEmission] = field(default=None, init=False, repr=False)

    # -- training -------------------------------------------------------------

    def fit(self, train: Dataset) -> "MacroHmm":
        """Supervised estimation from labelled sequences."""
        self.macro_index = LabelIndex(train.macro_vocab)
        n_m = len(self.macro_index)
        prior_c = Cpt((n_m,), alpha=self.alpha)
        trans_c = Cpt((n_m, n_m), alpha=self.alpha)

        all_features: List[np.ndarray] = []
        all_states: List[int] = []
        for seq in train.sequences:
            for rid in seq.resident_ids:
                labels = [self.macro_index.index(m) for m in seq.macro_labels(rid)]
                if not labels:
                    continue
                prior_c.observe(labels[0])
                for a, b in zip(labels[:-1], labels[1:]):
                    trans_c.observe(a, b)
                all_features.append(step_features(seq, rid))
                all_states.extend(labels)

        self.prior_ = prior_c.probabilities()
        self.trans_ = trans_c.probabilities()
        features = np.vstack(all_features)
        self.emission_ = GaussianEmission(dim=features.shape[1]).fit(
            features, np.array(all_states)
        )
        return self

    # -- inference ----------------------------------------------------------------

    def decode(self, seq: LabeledSequence, stats=None) -> Dict[str, List[str]]:
        """Viterbi macro labels per resident (chains decoded independently;
        work counted into *stats*)."""
        from repro.core import kernels  # lazy: avoid an import cycle

        return kernels.decode(self, seq, "macro_hmm", stats)

    def predict(self, seq: LabeledSequence) -> Dict[str, List[str]]:
        """Alias of :meth:`decode` (the baseline's historical name)."""
        return self.decode(seq)

    def posterior_marginals(self, seq: LabeledSequence, stats=None) -> Dict[str, np.ndarray]:
        """Posterior macro marginals ``(T, M)`` per resident (work counted
        into *stats*)."""
        from repro.core import kernels  # lazy: avoid an import cycle

        return kernels.posterior_marginals(self, seq, stats)

    # -- Recognizer surface --------------------------------------------------------

    def trellis_sessions(self, seq: LabeledSequence, stats=None) -> List["_HmmTrellis"]:
        """One independent session per resident (the flat chain prunes
        nothing, so there is nothing to count into *stats*)."""
        if self.macro_index is None:
            raise RuntimeError("model is not fitted")
        return [_HmmTrellis(self, seq, rid) for rid in seq.resident_ids]

    def describe(self) -> str:
        """One-line summary for logs and CLIs."""
        states = len(self.macro_index) if self.macro_index is not None else "unfitted"
        return f"flat macro HMM, one chain per resident ({states} states)"


class _HmmTrellis:
    """Trellis adapter over one resident's flat HMM chain (every macro is a
    candidate at every step)."""

    def __init__(self, model: MacroHmm, seq: LabeledSequence, rid: str):
        self.model = model
        self.seq = seq
        self.rids: Tuple[str, ...] = (rid,)
        self.macro_index = model.macro_index
        self._log_prior = np.log(model.prior_)
        self._log_trans = np.log(model.trans_)
        self._codes = (np.arange(len(model.macro_index)),)
        self._rows: Dict[int, np.ndarray] = {}

    def prepare(self, t0: int, t1: int) -> None:
        """Batch-score the emission rows for steps ``[t0, t1)`` with one
        stacked quadratic-form evaluation per state.  A step whose feature
        vector is empty or holds a NaN gets a zero row (no evidence), the
        rule the HDBN family's ``SequenceKernel`` applies."""
        model = self.model
        rid = self.rids[0]
        t1 = min(t1, len(self.seq.steps))
        todo = [t for t in range(t0, t1) if t not in self._rows]
        if not todo:
            return
        feats = [
            np.asarray(self.seq.steps[t].observations[rid].features, dtype=float)
            for t in todo
        ]
        ok = [k for k, x in enumerate(feats) if x.size and not np.isnan(x).any()]
        rows = np.zeros((len(todo), len(model.macro_index)))
        if ok:
            rows[ok] = model.emission_.log_pdf_rows(
                range(rows.shape[1]), np.stack([feats[k] for k in ok])
            )
        for k, t in enumerate(todo):
            self._rows[t] = rows[k]

    def release(self, t: int) -> None:
        pass  # piece() pops each step's row

    def piece(self, t: int):
        from repro.core.api import TrellisPiece  # lazy: avoid a cycle

        if t not in self._rows:
            self.prepare(t, t + 1)
        return TrellisPiece(scores=self._rows.pop(t))

    def initial_alpha(self, piece) -> np.ndarray:
        return self._log_prior + piece.scores

    def transition(self, prev, cur) -> np.ndarray:
        return self._log_trans

    def macros(self, piece) -> Tuple[np.ndarray]:
        return self._codes
