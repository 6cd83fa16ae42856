"""Constraint mining: probabilistic spatiotemporal statistics (§V-C).

Where the correlation miner extracts *deterministic* must/must-not rules,
the constraint miner estimates the *probabilistic* structure the coupled
HDBN's conditional probability tables need, and only the tables some
recogniser reads:

* the sub-location micro-chain per macro activity: a segment-start prior
  (the reset on a macro transition) and a within-segment transition table;
* per-macro occupancy of posture, gesture and sub-location, which drives
  the per-step evidence terms and candidate creation;
* end-of-sequence statistics ``p_end(micro | macro)`` and
  ``p_end(macro)`` implementing the E-marker semantics of Eqns 3-6 (a
  macro state is *blocked* from changing until its micro sequence
  terminates; a micro sequence cannot outlive its macro);
* coupled macro transitions ``P(m_t | m_{t-1}, partner_m_{t-1})``
  (Augmentation 3), shrunk toward the partner-marginal ``P(m_t | m_{t-1})``
  where data is sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datasets.trace import LabeledSequence
from repro.models.distributions import Cpt, LabelIndex, shrink_coupled_transitions


@dataclass
class ConstraintModel:
    """Mined probabilistic constraints, ready for CHDBN assembly."""

    macro_index: LabelIndex
    posture_index: LabelIndex
    gesture_index: Optional[LabelIndex]
    subloc_index: LabelIndex

    #: (M,) prior over macro activities at sequence start.
    macro_prior: np.ndarray = field(default=None)
    #: (M,) fraction of steps spent in each macro (class occupancy).
    macro_occupancy: np.ndarray = field(default=None)
    #: (M, M, M) coupled transition P(m' | m, partner_m).
    macro_trans_coupled: np.ndarray = field(default=None)
    #: (M,) per-step probability that a macro segment terminates.
    macro_end_prob: np.ndarray = field(default=None)
    #: (M,) per-step probability that a micro slice terminates, given macro.
    micro_end_prob: np.ndarray = field(default=None)
    #: (M, L) per-macro *segment-start* sub-location distribution
    #: (Augmentation 2/3's pi): counted once per macro segment, it
    #: parameterises the micro-chain reset on a macro transition.
    subloc_prior: np.ndarray = field(default=None)
    #: per-macro *occupancy* distributions, (M, P) / (M, G) / (M, L):
    #: counted at every step, these answer "given the macro, what micro
    #: context do we see at a random instant?" and drive the per-step
    #: evidence terms.  Segment-start priors are far flatter (one count per
    #: segment drowns in smoothing) and must not be used for evidence.
    posture_occupancy: np.ndarray = field(default=None)
    gesture_occupancy: Optional[np.ndarray] = field(default=None)
    subloc_occupancy: np.ndarray = field(default=None)
    #: (M, L, L) per-macro sub-location transition within a segment.
    subloc_trans: np.ndarray = field(default=None)

    @property
    def n_macro(self) -> int:
        """Number of macro states."""
        return len(self.macro_index)


@dataclass
class ConstraintMiner:
    """Counts constraint statistics from labelled training sequences."""

    alpha: float = 0.5
    end_alpha: float = 1.0

    def fit(
        self,
        sequences: Sequence[LabeledSequence],
        macro_vocab: Tuple[str, ...],
        posture_vocab: Tuple[str, ...],
        gesture_vocab: Tuple[str, ...],
        subloc_vocab: Tuple[str, ...],
    ) -> ConstraintModel:
        """Mine the constraint model from ground-truth labels."""
        macro_idx = LabelIndex(macro_vocab)
        posture_idx = LabelIndex(posture_vocab)
        gesture_idx = LabelIndex(gesture_vocab) if gesture_vocab else None
        subloc_idx = LabelIndex(subloc_vocab)
        n_m, n_p, n_l = len(macro_idx), len(posture_idx), len(subloc_idx)
        n_g = len(gesture_idx) if gesture_idx else 0

        prior_c = Cpt((n_m,), alpha=self.alpha)
        coupled_c = Cpt((n_m, n_m, n_m), alpha=self.alpha)
        loc_prior_c = Cpt((n_m, n_l), alpha=self.alpha)
        loc_trans_c = Cpt((n_m, n_l, n_l), alpha=self.alpha)
        post_occ_c = Cpt((n_m, n_p), alpha=self.alpha)
        loc_occ_c = Cpt((n_m, n_l), alpha=self.alpha)
        gest_occ_c = Cpt((n_m, n_g), alpha=self.alpha) if n_g else None
        macro_occ_c = Cpt((n_m,), alpha=self.alpha)

        # End-of-sequence counters: [continuations, terminations] per macro.
        macro_end = np.full((n_m, 2), self.end_alpha)
        micro_end = np.full((n_m, 2), self.end_alpha)

        for seq in sequences:
            for rid in seq.resident_ids:
                others = [o for o in seq.resident_ids if o != rid]
                partner = others[0] if others else None
                prev = None
                for t, truth in enumerate(seq.truths):
                    mine = truth[rid]
                    m = macro_idx.index(mine.macro)
                    p = posture_idx.index(mine.posture)
                    l = subloc_idx.index(mine.subloc)
                    g = gesture_idx.index(mine.gesture) if gesture_idx else None

                    post_occ_c.observe(m, p)
                    loc_occ_c.observe(m, l)
                    macro_occ_c.observe(m)
                    if gest_occ_c is not None and g is not None:
                        gest_occ_c.observe(m, g)

                    if prev is None:
                        prior_c.observe(m)
                        loc_prior_c.observe(m, l)
                    else:
                        pm = macro_idx.index(prev.macro)
                        if partner is not None:
                            ppm = macro_idx.index(seq.truths[t - 1][partner].macro)
                            coupled_c.observe(pm, ppm, m)
                        # Macro end marker: did the segment terminate here?
                        macro_end[pm, 1 if mine.macro != prev.macro else 0] += 1
                        if mine.macro == prev.macro:
                            # Within-macro micro dynamics.
                            pl = subloc_idx.index(prev.subloc)
                            loc_trans_c.observe(m, pl, l)
                            micro_changed = (
                                mine.posture != prev.posture
                                or mine.subloc != prev.subloc
                                or mine.gesture != prev.gesture
                            )
                            micro_end[pm, 1 if micro_changed else 0] += 1
                        else:
                            # New macro: micro chain restarts from its prior
                            # (Augmentation 3's pi-vs-a distinction), and by
                            # the termination constraint the old micro slice
                            # must have ended.
                            loc_prior_c.observe(m, l)
                            micro_end[pm, 1] += 1
                    prev = mine

        model = ConstraintModel(
            macro_index=macro_idx,
            posture_index=posture_idx,
            gesture_index=gesture_idx,
            subloc_index=subloc_idx,
        )
        model.macro_prior = prior_c.probabilities()
        model.macro_trans_coupled = shrink_coupled_transitions(
            coupled_c.counts, alpha=self.alpha
        )
        model.macro_end_prob = macro_end[:, 1] / macro_end.sum(axis=1)
        model.micro_end_prob = micro_end[:, 1] / micro_end.sum(axis=1)
        model.subloc_prior = loc_prior_c.probabilities()
        model.subloc_trans = loc_trans_c.probabilities()
        model.posture_occupancy = post_occ_c.probabilities()
        model.subloc_occupancy = loc_occ_c.probabilities()
        model.macro_occupancy = macro_occ_c.probabilities()
        if gest_occ_c is not None:
            model.gesture_occupancy = gest_occ_c.probabilities()
        return model
