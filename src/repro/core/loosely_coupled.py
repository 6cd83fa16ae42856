"""Loosely-coupled HDBN over N resident chains — the CACE model.

The paper builds its coupled HDBN for the two-resident testbed and
conjectures in its conclusion that "our generic CACE framework can handle
3-4 occupants as well".  :class:`NChainHdbn` is that model for any number
of resident chains; a resident pair is its N=2 case, run with the
testbed's per-user and ``ncs`` caps (:data:`PAIR_CAPS`), and every N keeps
at most 100 rule-pruned joint states per step:

* per-user candidate states and emissions come from
  :func:`~repro.core.chdbn.build_candidate_set`, shared with NCR's
  frame-wise classifier;
* deterministic cross-user correlations prune every *pair* of chains —
  rules are mined on symmetrised two-user slots, so a rule that forbids
  ``(u1, u2)`` joint states applies to every ordered chain pair;
* the joint coverage term explains fired areas against *all* hypothesised
  residents;
* each chain's macro transition is conditioned on one partner chain
  (chain ``i`` on chain ``(i+1) mod N``), which keeps the transition
  tensor pairwise — exactly the "loose" coupling that makes N chains
  tractable — while every pairing still appears somewhere in the ring.
  For N=2 the ring is the paper's pair coupling: each chain conditions on
  the other.

Joint candidates are built on the per-user grid ``n_0 x ... x n_{N-1}``:
the rule mask, emission sum and coverage are broadcasts of per-chain
vectors and pairwise matrices (``prod(n_u)`` float64 scores, about 2.6 MB
at 4 x 24 candidates).  Only the survivors of the rules and of the
emission-score cap (best first, ties to the lowest flat index) are
unravelled into ``(N, J)`` index rows into the per-user candidate lists,
plus each user's macro and sub-location codes
(see :class:`_NChainTrellis`), so the trellis width stays bounded while
the raw product space grows exponentially in N.

The same loose coupling factors the transition block: chain ``i``'s
term depends on the current joint state only through chain ``i``'s own
candidate, so it is built once per (candidate of ``i``, previous joint
state) from per-candidate tables -- a row of the ``(M, M·M)`` macro table
and a continue/reset table on chain ``i``'s own candidate grid, each read
by a single-axis gather -- and row-gathered onto the joint axis.  The
chains' terms are summed on the transposed ``(C, P)`` grid and returned
as its F-ordered ``(P, C)`` view, whose reduced axis Viterbi reads
contiguously; :func:`~repro.core.kernels.linear_block` converts it into a
C-contiguous linear block for the sum-product steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.api import DecodeStats, TrellisPiece
from repro.core.chdbn import (
    MIN_CHANGE_PROB,
    build_candidate_set,
    build_transition_tables,
    chain_block,
    fit_emission_tables,
    init_user_evidence,
)
from repro.core.kernels import SequenceKernel
from repro.core.rule_kernel import CrossRulePruner
from repro.core.state_space import CandidateSet, StateSpaceBuilder
from repro.datasets.trace import Dataset, LabeledSequence
from repro.mining.constraint_miner import ConstraintModel
from repro.mining.correlation_miner import CorrelationRuleSet
from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_positive

_TINY = 1e-12

#: Per-user and ``ncs`` joint caps of the paper's two-resident testbed.  The
#: engine builds every resident pair with them (``max_states_per_user`` comes
#: from the engine); 3+ chains keep the class defaults, 24 and 1200.
PAIR_CAPS = {"max_states_per_user": 36, "max_joint_states": 2000}

#: Joint explaining-away: log cost of a fired area-motion sensor that *no*
#: resident's hypothesis covers (~log of the per-window false alarm
#: probability).  This is where multiple occupancy becomes an asset:
#: "partner is in the kitchen" explains the kitchen firing, so I don't have
#: to be there — and an area nobody claims votes against the whole joint
#: assignment, not against any resident alone.
UNEXPLAINED_SUBLOC_PENALTY = -4.5
#: Same idea at room granularity for PIR fleets (milder: rooms keep firing
#: briefly after the occupant walks out of a 15 s window).
UNEXPLAINED_ROOM_PENALTY = -2.5

#: A joint piece's encoding ``(grids, m, l)`` (see :class:`_NChainTrellis`).
JointEnc = Tuple[np.ndarray, Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]


def best_first(scores: np.ndarray, cap: int) -> np.ndarray:
    """Indices of the *cap* highest *scores*, descending, ties to the lowest
    index: ``np.argsort(-scores, kind="stable")[:cap]`` for ``0 < cap <
    len(scores)``, from a partition and a sort of the kept entries only."""
    k = scores.size - cap
    v = np.partition(scores, k)[k]
    kept = (scores > v).nonzero()[0]
    kept = np.concatenate((kept, (scores == v).nonzero()[0][: cap - kept.size]))
    return kept[np.argsort(-scores[kept], kind="stable")]


@dataclass
class NChainHdbn:
    """Loosely-coupled HDBN over N >= 2 resident chains.

    Parameters
    ----------
    constraint_model:
        Output of the constraint miner (probabilistic structure).
    rule_set:
        Output of the correlation miner; ``None`` disables correlation
        pruning (the paper's NCS strategy).
    gmm_components:
        Deterministic-annealing codebook size per macro.
    max_states_per_user / max_joint_states:
        Per-user and per-step joint caps; candidates beyond them are
        dropped by emission score (logged in :class:`DecodeStats`).  The
        joint caps apply to the full N-way product space.
    """

    constraint_model: ConstraintModel
    rule_set: Optional[CorrelationRuleSet] = None
    gmm_components: int = 4
    max_states_per_user: int = 24
    max_joint_states: int = 1200
    #: When correlation pruning is active, surviving joint candidates are
    #: further capped to the best-scoring K — the paper's probabilistic
    #: pruning of "very unlikely state sequences" that buys the 16x.  Pair
    #: accuracy is flat down to ~70; on eight 3-4 resident splits, 100
    #: kept 6,696 of 6,720 of the labels decoded at 300, losing <= 0.0041.
    max_joint_states_pruned: int = 100
    seed: RandomState = None
    builder: StateSpaceBuilder = field(default=None, init=False, repr=False)
    gmms_: Dict[int, object] = field(default_factory=dict, init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("max_states_per_user", "max_joint_states", "max_joint_states_pruned"):
            check_positive(name, getattr(self, name))
        self._rng = ensure_rng(self.seed)
        init_user_evidence(self)
        self._cross_rules = self.rule_set.cross_user() if self.rule_set else None
        cm = self.constraint_model
        self._cross_pruner = (
            CrossRulePruner(self._cross_rules, cm, self.builder.room_of_l)
            if self._cross_rules is not None
            else None
        )
        # macro_end_prob is counted per step, so it already reflects the
        # blocking constraint (macro segments end only at micro boundaries);
        # multiplying in micro_end_prob again would double-count.
        self._p_change = np.clip(cm.macro_end_prob, MIN_CHANGE_PROB, 0.5)
        # Off-diagonal renormalised coupled transition: given a change
        # happens, where does the macro go (conditioned on the partner)?
        coupled = cm.macro_trans_coupled.copy()
        n_m = cm.n_macro
        coupled[np.arange(n_m), :, np.arange(n_m)] = 0.0
        row = coupled.sum(axis=2, keepdims=True)
        self._change_trans = coupled / np.maximum(row, _TINY)
        self._log_subloc_prior = np.log(cm.subloc_prior + _TINY)
        self._subloc_trans = cm.subloc_trans
        self._micro_end = cm.micro_end_prob
        self._macro_block_table, self._loc_block_table = build_transition_tables(
            self._p_change, self._change_trans, self._micro_end, self._subloc_trans
        )

    # -- training -----------------------------------------------------------------

    def fit(self, train: Dataset) -> "NChainHdbn":
        """Fit emissions: DA Gaussian mixtures + object-evidence CPT."""
        fit_emission_tables(self, train)
        return self

    # -- per-step machinery ----------------------------------------------------------

    def _joint_candidates(
        self,
        seq: LabeledSequence,
        t: int,
        per_user: List[CandidateSet],
        kern: SequenceKernel,
        stats: DecodeStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Joint candidates as (N, J) index rows into the per-user lists,
        and their scores; rule-pruned and capped joint states are counted
        into *stats*.

        The rule mask and every score term are broadcasts on the per-user
        grid ``n_0 x ... x n_{N-1}`` (``prod(n_u)`` float64 scores: about
        2.6 MB at 4 x 24 candidates), added in the seed's order; only the
        survivors of the rules and the cap are unravelled into index rows.
        Survivors keep ``np.indices`` (C-order) order; a binding cap keeps
        the best scores in descending order, ties to the lowest flat index
        (:func:`best_first`)."""
        step = seq.steps[t]
        n = len(per_user)
        shape = tuple(len(c) for c in per_user)
        # A chain's (n_u,) vector on its grid axis: broadcasting supplies
        # the leading unit axes.
        ones = (1,) * n
        on_axis = [(k,) + ones[u + 1:] for u, k in enumerate(shape)]
        scores = sum(c.emissions.reshape(v) for c, v in zip(per_user, on_axis))
        mask = np.ones(shape, dtype=bool)
        if self._cross_pruner is not None:
            # The pruner's grid tables and gate memo serve every ordered
            # chain pair.
            amb = kern.step_items(t)
            for a in range(n):
                for b in range(a + 1, n):
                    ab = (shape[a],) + ones[a + 1:b] + on_axis[b]
                    mask &= self._cross_pruner.keep(amb, per_user[a], per_user[b]).reshape(ab)
            # Count only joint states actually removed: when every one
            # fails the rules the pruner keeps them all, and reporting the
            # would-be removals would inflate the Fig 11 overhead metric.
            if mask.any():
                stats.pruned_joint_states += mask.size - int(np.count_nonzero(mask))
            else:
                mask[...] = True

        # Joint explaining-away over all chains: a fired area is unexplained
        # where every chain's candidate misses it (a sub-location the model
        # does not know is missed by all).
        if step.sublocs_fired:
            index = self.constraint_model.subloc_index
            codes = [index.index(f) if f in index else -1 for f in step.sublocs_fired]
            misses = [[c.l != f for c in per_user] for f in codes]
            penalty = UNEXPLAINED_SUBLOC_PENALTY
        else:
            room_of_l = self.builder.room_of_l
            misses = [[room_of_l[c.l] != r for c in per_user] for r in step.rooms_fired]
            penalty = UNEXPLAINED_ROOM_PENALTY
        for per_chain in misses:
            unexplained = True
            for miss, v in zip(per_chain, on_axis):
                unexplained = unexplained & miss.reshape(v)
            scores += np.where(unexplained, penalty, 0.0)

        flat = mask.ravel().nonzero()[0]
        scores = scores.ravel()[flat]
        cap = self.max_joint_states
        if self.rule_set is not None:
            cap = min(cap, self.max_joint_states_pruned)
        if flat.size > cap:
            stats.capped_joint_states += flat.size - cap
            top = best_first(scores, cap)
            flat = flat[top]
            scores = scores[top]
        return np.array(np.unravel_index(flat, shape)), scores

    def _transition_block(self, prev: JointEnc, cur: JointEnc) -> np.ndarray:
        """(P, C) joint log transition; chain i conditions on chain
        (i+1) mod N.

        Chain u's term is built transposed, ``(n_u, P)``: by u's own
        current candidates and the previous joint states
        (:func:`~repro.core.chdbn.chain_block`).  Each term is row-gathered
        onto the joint axis (``c_grids[u]``, contiguous row copies) and the
        terms are summed chain 0 first, into chain 0's gathered rows (a
        fresh array), so every entry is the one the full (P, C) grid would
        compute.  The result is the transpose of the
        ``(C, P)`` sum: an F-ordered view, whose previous-state axis --
        the one Viterbi reduces -- is contiguous."""
        p_grids, p_m, p_l = prev
        c_grids, c_m, c_l = cur
        n = p_grids.shape[0]

        def rows(u: int) -> np.ndarray:
            w = (u + 1) % n
            small_t = chain_block(
                self._macro_block_table, self._loc_block_table, self._log_subloc_prior,
                p_grids[u], p_m[u], p_l[u], p_m[w][p_grids[w]], c_m[u], c_l[u],
            )
            return small_t[c_grids[u]]

        total = rows(0)
        for u in range(1, n):
            total += rows(u)
        return total.T

    # -- Recognizer surface --------------------------------------------------------

    def trellis_sessions(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> List["_NChainTrellis"]:
        """One joint session over all resident chains, counting its pruned
        and capped joint states into *stats*."""
        rids = tuple(seq.resident_ids)
        if len(rids) < 2:
            raise ValueError("NChainHdbn expects >= 2 residents")
        return [_NChainTrellis(self, seq, rids, stats if stats is not None else DecodeStats())]

    def decode(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> Dict[str, List[str]]:
        """Joint Viterbi macro labels for every resident (work counted
        into *stats*)."""
        return kernels.decode(self, seq, "nchain", stats)

    def posterior_marginals(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> Dict[str, np.ndarray]:
        """Per-resident posterior macro marginals ``(T, M)`` (work counted
        into *stats*)."""
        return kernels.posterior_marginals(self, seq, stats)

    def describe(self) -> str:
        """One-line summary for logs and CLIs."""
        pruning = "rule-pruned" if self.rule_set is not None else "unpruned"
        return (
            f"loosely-coupled N-chain HDBN ({pruning}, "
            f"<= {self.max_states_per_user} states/user)"
        )


def joint_codes(enc: JointEnc) -> Tuple[np.ndarray, np.ndarray]:
    """``(N, J)`` macro and sub-location code rows of a joint piece's
    encoding (one row per chain)."""
    grids, m, l = enc
    return (
        np.stack([mu[g] for mu, g in zip(m, grids)]),
        np.stack([lu[g] for lu, g in zip(l, grids)]),
    )


class _NChainTrellis:
    """Trellis adapter over the joint N-chain trellis.

    A piece's ``enc`` is ``(grids, m, l)``: ``grids`` is the ``(N, J)``
    index rows of the joint candidates into the per-user candidate lists,
    and ``m`` / ``l`` hold each user's own macro / sub-location codes
    (length ``n_u``).  The transition block is built on the per-user codes;
    the joint code rows are derived on demand (:func:`joint_codes`).
    """

    def __init__(
        self,
        model: NChainHdbn,
        seq: LabeledSequence,
        rids: Tuple[str, ...],
        stats: DecodeStats,
    ):
        self.model = model
        self.seq = seq
        self.rids = rids
        self.stats = stats
        self.macro_index = model.constraint_model.macro_index
        self._kern = SequenceKernel(model, seq, rids)

    def prepare(self, t0: int, t1: int) -> None:
        """Batch-build the per-sequence evidence tables for ``[t0, t1)``
        ahead of the per-step ``piece`` calls."""
        self._kern.ensure(t0, t1)

    def release(self, t: int) -> None:
        self._kern.release(t)

    def piece(self, t: int) -> TrellisPiece:
        model, seq, rids, kern = self.model, self.seq, self.rids, self._kern
        kern.ensure(0, t + 1)
        per_user = [build_candidate_set(model, seq, rid, t, kern) for rid in rids]
        grids, scores = model._joint_candidates(seq, t, per_user, kern, self.stats)
        enc = (grids, tuple(c.m for c in per_user), tuple(c.l for c in per_user))
        return TrellisPiece(scores=scores, enc=enc)

    def initial_alpha(self, piece: TrellisPiece) -> np.ndarray:
        model = self.model
        m, l = joint_codes(piece.enc)
        prior = (
            np.log(model.constraint_model.macro_prior[m] + _TINY)
            + model._log_subloc_prior[m, l]
        )
        return piece.scores + prior.sum(axis=0)

    def transition(self, prev: TrellisPiece, cur: TrellisPiece) -> np.ndarray:
        return self.model._transition_block(prev.enc, cur.enc)

    def macros(self, piece: TrellisPiece) -> List[np.ndarray]:
        grids, m, _ = piece.enc
        return [mu[g] for mu, g in zip(m, grids)]
