"""Coupled HMM — the Roy et al. [4] baseline.

"Added micro context constraints among all users ... using Coupled Hidden
Markov Model" with *ambient and postural* data (no gestural channel, no
hierarchy).  Hidden state is the joint macro pair ``(m1, m2)``; each chain's
transition is conditioned on both chains' previous states, and per-user
emissions combine a posture CPT, a sub-location-candidate likelihood, and a
Gaussian over the phone-side feature dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.trace import Dataset, LabeledSequence
from repro.home.layout import SUB_REGIONS
from repro.models.distributions import (
    Cpt,
    GaussianEmission,
    LabelIndex,
    shrink_coupled_transitions,
)
from repro.models.inputs import observed_postures, step_features, subloc_candidates

#: Feature dimensions observable without the neck tag (phone IMU only).
PHONE_FEATURE_DIMS: Tuple[int, ...] = (0, 1, 4)

#: Beacon position-estimate noise scale (metres) for soft location evidence.
#: Calibrated against the receiver's empirical trilateration error (~0.4 m
#: mean) with headroom for within-region wander between fixes.
LOCATION_KERNEL_SIGMA_M = 1.0


def soft_location_log_evidence(
    subloc_index: LabelIndex,
    position_estimate: Optional[Tuple[float, float]],
    candidates: Tuple[str, ...],
) -> np.ndarray:
    """``(L,)`` log weight that the resident is at each sub-location.

    With a beacon fix, weights follow a Gaussian kernel on the distance from
    the estimate to each sub-region centre; without one, the candidate set
    receives uniform mass and everything else a floor.
    """
    centers = {sr.sr_id: sr.center for sr in SUB_REGIONS}
    n_l = len(subloc_index)
    out = np.full(n_l, -12.0)
    if position_estimate is not None:
        ex, ey = position_estimate
        for sr_id, (cx, cy) in centers.items():
            if sr_id in subloc_index:
                d2 = (ex - cx) ** 2 + (ey - cy) ** 2
                out[subloc_index.index(sr_id)] = -d2 / (2 * LOCATION_KERNEL_SIGMA_M**2)
    else:
        for sr_id in candidates:
            if sr_id in subloc_index:
                out[subloc_index.index(sr_id)] = 0.0
    return out


@dataclass
class CoupledHmm:
    """Two-chain coupled HMM over macro activities."""

    alpha: float = 0.1
    macro_index: Optional[LabelIndex] = field(default=None, init=False)
    posture_index: Optional[LabelIndex] = field(default=None, init=False)
    subloc_index: Optional[LabelIndex] = field(default=None, init=False)
    prior_: Optional[np.ndarray] = field(default=None, init=False)
    coupled_trans_: Optional[np.ndarray] = field(default=None, init=False)
    posture_cpt_: Optional[np.ndarray] = field(default=None, init=False)
    subloc_cpt_: Optional[np.ndarray] = field(default=None, init=False)
    emission_: Optional[GaussianEmission] = field(default=None, init=False, repr=False)

    # -- training -------------------------------------------------------------

    def fit(self, train: Dataset) -> "CoupledHmm":
        """Supervised estimation of coupled transitions and emissions."""
        self.macro_index = LabelIndex(train.macro_vocab)
        self.posture_index = LabelIndex(train.postural_vocab)
        self.subloc_index = LabelIndex(train.subloc_vocab)
        n_m = len(self.macro_index)
        prior_c = Cpt((n_m,), alpha=self.alpha)
        coupled_c = Cpt((n_m, n_m, n_m), alpha=self.alpha)
        posture_c = Cpt((n_m, len(self.posture_index)), alpha=self.alpha)
        subloc_c = Cpt((n_m, len(self.subloc_index)), alpha=self.alpha)

        feats: List[np.ndarray] = []
        states: List[int] = []
        for seq in train.sequences:
            for rid in seq.resident_ids:
                partner = next((o for o in seq.resident_ids if o != rid), None)
                labels = [self.macro_index.index(m) for m in seq.macro_labels(rid)]
                if not labels:
                    continue
                prior_c.observe(labels[0])
                partner_labels = (
                    [self.macro_index.index(m) for m in seq.macro_labels(partner)]
                    if partner
                    else labels
                )
                for t in range(1, len(labels)):
                    coupled_c.observe(labels[t - 1], partner_labels[t - 1], labels[t])
                for t, truth in enumerate(seq.truths):
                    posture_c.observe(
                        labels[t],
                        self.posture_index.index(seq.steps[t].observations[rid].posture),
                    )
                    subloc_c.observe(labels[t], self.subloc_index.index(truth[rid].subloc))
                feats.append(step_features(seq, rid)[:, PHONE_FEATURE_DIMS])
                states.extend(labels)

        self.prior_ = prior_c.probabilities()
        self.coupled_trans_ = shrink_coupled_transitions(coupled_c.counts, alpha=self.alpha)
        self.posture_cpt_ = posture_c.probabilities()
        self.subloc_cpt_ = subloc_c.probabilities()
        stacked = np.vstack(feats)
        self.emission_ = GaussianEmission(dim=stacked.shape[1]).fit(stacked, np.array(states))
        return self

    # -- inference ----------------------------------------------------------------

    def _user_log_emissions(self, seq: LabeledSequence, rid: str) -> np.ndarray:
        """(T, M) per-user emission scores.  A step whose feature vector
        is empty or holds a NaN gets a zero Gaussian row (no evidence), as
        under NH and the HDBN family's kernel."""
        n_m = len(self.macro_index)
        feats = [np.asarray(step.observations[rid].features, dtype=float) for step in seq.steps]
        ok = [t for t, x in enumerate(feats) if x.size and not np.isnan(x).any()]
        postures = observed_postures(seq, rid)
        candidates = subloc_candidates(seq, rid)
        log_post = np.log(self.posture_cpt_)
        log_loc = np.log(self.subloc_cpt_)
        # The Gaussian channel for every usable step at once; the loop adds
        # the rest.
        out = np.zeros((len(seq), n_m))
        if ok:
            rows = np.stack([feats[t] for t in ok])[:, PHONE_FEATURE_DIMS]
            out[ok] = self.emission_.log_pdf_rows(range(n_m), rows)
        for t in range(len(seq)):
            p_idx = self.posture_index.index(postures[t])
            obs = seq.steps[t].observations[rid]
            loc_weight = soft_location_log_evidence(
                self.subloc_index, obs.position_estimate, candidates[t]
            )
            # Marginalise the true sub-location: sum_l P(l | m) w(l | fix).
            loc_mass = np.log(np.exp(log_loc + loc_weight[None, :]).sum(axis=1) + 1e-300)
            out[t] += log_post[:, p_idx] + loc_mass
        return out

    def _joint_pieces(self, seq: LabeledSequence, rids: Tuple[str, str]):
        n_m = len(self.macro_index)
        e1 = self._user_log_emissions(seq, rids[0])
        e2 = self._user_log_emissions(seq, rids[1])
        log_e = (e1[:, :, None] + e2[:, None, :]).reshape(len(seq), n_m * n_m)

        log_c = np.log(self.coupled_trans_)
        # A[(i,j) -> (i',j')] = log P(i'|i,j) + log P(j'|j,i)
        a = log_c[:, :, :, None] + np.transpose(log_c, (1, 0, 2))[:, :, None, :]
        log_trans = a.reshape(n_m * n_m, n_m * n_m)

        log_prior = (np.log(self.prior_)[:, None] + np.log(self.prior_)[None, :]).reshape(-1)
        return log_prior, log_trans, log_e

    def predict(self, seq: LabeledSequence) -> Dict[str, List[str]]:
        """Joint Viterbi decode over the coupled macro pair."""
        from repro.core.kernels import viterbi_path  # lazy: avoid an import cycle

        if self.macro_index is None:
            raise RuntimeError("model is not fitted")
        rids = seq.resident_ids[:2]
        if len(rids) < 2:
            raise ValueError("CoupledHmm expects two residents")
        if len(seq) == 0:
            return {rid: [] for rid in rids}
        log_prior, log_trans, log_e = self._joint_pieces(seq, rids)
        path = viterbi_path(log_prior + log_e[0], log_e, lambda t: log_trans)
        n_m = len(self.macro_index)
        out1 = [self.macro_index.label(s // n_m) for s in path]
        out2 = [self.macro_index.label(s % n_m) for s in path]
        return {rids[0]: out1, rids[1]: out2}
