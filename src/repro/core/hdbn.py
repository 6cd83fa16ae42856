"""Single-inhabitant HDBN (paper §IV-C, Eqn 1).

One hierarchical chain: hidden ``(macro, subloc)`` with the same
end-of-sequence-marker transition semantics as the coupled model, but the
macro transition is the *uncoupled* table and no partner context exists.
Besides the N=1 use case, this model is the engine of the paper's **NCR**
strategy — per-user rule pruning without any inter-user coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.api import DecodeStats, TrellisPiece, make_step_filter
from repro.core.chdbn import (
    build_candidate_set,
    build_transition_tables,
    chain_block,
    fit_emission_tables,
)
from repro.core.kernels import SequenceKernel
from repro.core.rule_kernel import CompiledRules, SingleRulePruner
from repro.core.state_space import StateSpaceBuilder
from repro.datasets.trace import Dataset, LabeledSequence
from repro.mining.constraint_miner import ConstraintModel
from repro.mining.correlation_miner import CorrelationRuleSet
from repro.util.rng import RandomState, ensure_rng

_TINY = 1e-12
_PIR_MISS_PENALTY = -1.5


@dataclass
class SingleUserHdbn:
    """Hierarchical DBN for one resident's chain."""

    constraint_model: ConstraintModel
    rule_set: Optional[CorrelationRuleSet] = None
    gmm_components: int = 4
    max_states_per_user: int = 36
    min_change_prob: float = 1e-4
    use_feature_gmm: bool = True
    pir_miss_penalty: float = _PIR_MISS_PENALTY
    #: NCR runs frame-wise (the paper's two-fold rule-prune-then-classify
    #: approach has no temporal chaining); set True for a true 1-chain HDBN.
    temporal: bool = True
    seed: RandomState = None
    builder: StateSpaceBuilder = field(default=None, init=False, repr=False)
    gmms_: Dict[int, object] = field(default_factory=dict, init=False, repr=False)
    last_stats: DecodeStats = field(default_factory=DecodeStats, init=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = ensure_rng(self.seed)
        self.builder = StateSpaceBuilder(
            constraint_model=self.constraint_model,
            max_states_per_user=4 * self.max_states_per_user,
        )
        self._single_rules = self.rule_set.single_user() if self.rule_set else None
        self._single_pruner = (
            SingleRulePruner(
                CompiledRules(self._single_rules),
                self.constraint_model,
                self.builder.room_of_l,
            )
            if self._single_rules is not None
            else None
        )
        cm = self.constraint_model
        # Counted per step: already conditioned on micro termination.
        self._p_change = np.clip(cm.macro_end_prob, self.min_change_prob, 0.5)
        trans = cm.macro_trans.copy()
        np.fill_diagonal(trans, 0.0)
        self._change_trans = trans / np.maximum(trans.sum(axis=1, keepdims=True), _TINY)
        # Per-step occupancy tables for evidence (the segment-start priors
        # are far too flat to act as evidence).
        self._log_posture = np.log(cm.posture_occupancy + _TINY)
        self._log_gesture = (
            np.log(cm.gesture_occupancy + _TINY)
            if cm.gesture_occupancy is not None
            else None
        )
        self._log_subloc_prior = np.log(cm.subloc_prior + _TINY)
        self._log_subloc_occ = np.log(cm.subloc_occupancy + _TINY)
        # Precomputed transition log tables: the per-step chain blocks are
        # pure gathers (shared with the coupled model; the uncoupled macro
        # table is 2-D).
        self._macro_block_table, self._loc_block_table = build_transition_tables(
            self._p_change, self._change_trans, cm.micro_end_prob, cm.subloc_trans
        )

    # -- training (shares the coupled model's emission machinery) ----------------

    def fit(self, train: Dataset) -> "SingleUserHdbn":
        """Fit per-macro Gaussian mixtures via deterministic annealing."""
        fit_emission_tables(self, train)
        return self

    # -- inference ---------------------------------------------------------------------

    def decode(self, seq: LabeledSequence) -> Dict[str, List[str]]:
        """Decode every resident independently (no coupling): Viterbi per
        chain, or the frame-wise MAP when ``temporal`` is off."""
        return kernels.decode(self, seq, "single_user")

    def posterior_marginals(self, seq: LabeledSequence) -> Dict[str, np.ndarray]:
        """Per-resident posterior macro marginals ``(T, M)``.

        ``temporal=False`` (the NCR strategy) yields frame-wise posteriors
        under the macro-occupancy prior; ``temporal=True`` runs
        forward-backward over the same trellis Viterbi decodes.
        """
        return kernels.posterior_marginals(self, seq)

    # -- Recognizer surface --------------------------------------------------------

    def trellis_sessions(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> List["_UserTrellis"]:
        """One independent session per resident (single-user pruning
        removes no joint states, so there is nothing to count into
        *stats*)."""
        return [_UserTrellis(self, seq, rid) for rid in seq.resident_ids]

    def step_filter(self, lag: int = 0):
        """Fixed-lag smoother bound to this model."""
        return make_step_filter(self, lag)

    def describe(self) -> str:
        """One-line summary for logs and CLIs."""
        chain = "temporal 1-chain HDBN" if self.temporal else "frame-wise classifier"
        pruning = "rule-pruned" if self.rule_set is not None else "unpruned"
        return f"per-user {chain} ({pruning}, <= {self.max_states_per_user} states/user)"


class _UserTrellis:
    """Trellis adapter over one resident's chain.

    ``temporal=False`` (the NCR strategy) exposes no transition: each
    step's scores carry the macro-occupancy prior and stand alone, so
    offline decoding is the frame-wise MAP and the smoother reduces to
    filtering.
    """

    def __init__(self, model: SingleUserHdbn, seq: LabeledSequence, rid: str):
        self.model = model
        self.seq = seq
        self.rids: Tuple[str, ...] = (rid,)
        self.macro_index = model.constraint_model.macro_index
        self._kern = SequenceKernel(model, seq, self.rids)

    def prepare(self, t0: int, t1: int) -> None:
        """Batch-build the per-sequence evidence tables for ``[t0, t1)``
        ahead of the per-step ``piece`` calls."""
        self._kern.ensure(t0, t1)

    def release(self, t: int) -> None:
        self._kern.release(t)

    def piece(self, t: int) -> TrellisPiece:
        model = self.model
        self._kern.ensure(0, t + 1)
        c = build_candidate_set(model, self.seq, self.rids[0], t, self._kern)
        scores = c.emissions
        if not model.temporal:
            cm = model.constraint_model
            scores = scores + np.log(cm.macro_occupancy[c.m] + _TINY)
        return TrellisPiece(scores=scores, enc=(c.m, c.l))

    def initial_alpha(self, piece: TrellisPiece) -> np.ndarray:
        model = self.model
        if not model.temporal:
            return piece.scores
        cm = model.constraint_model
        m, l = piece.enc
        return np.log(cm.macro_prior[m] + _TINY) + model._log_subloc_prior[m, l] + piece.scores

    def transition(self, prev: TrellisPiece, cur: TrellisPiece) -> Optional[np.ndarray]:
        if not self.model.temporal:
            return None
        model = self.model
        pm, pl = prev.enc
        m, l = cur.enc
        return chain_block(
            model._macro_block_table, model._loc_block_table, model._log_subloc_prior,
            pm, pl, None, m, l,
        )

    def macros(self, piece: TrellisPiece) -> Tuple[np.ndarray]:
        return piece.enc[:1]
