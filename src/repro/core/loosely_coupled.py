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

A range of :data:`STACKED_MIN_STEPS` or more steps is built in stacked
passes instead (:meth:`_NChainTrellis.build_range`), whatever N is: each
resident's candidates for every step of the range in one
:func:`~repro.core.chdbn.build_candidate_set` call, padded to the range's
longest list on a leading step axis, and each chain pair's cross-rule
mask for every step in one batched call, both reading one shared list of
the steps' ambient items.  The joint layer is stacked too where its
padded grid ``S x n_0 x ... x n_{N-1}`` is small, a per-user grid of at
most :data:`STACKED_MAX_CELLS` cells (pairs): emission sum, mask with its
keep-all fallback, coverage penalty and cap, in chunks of at most
:data:`STACKED_CHUNK_CELLS` cells.  Above that (trios and quads at 24
candidates per user, whose padding outweighs the saved dispatch) it runs
one step at a time on the step's own unpadded rows and its slice of the
masks.  Every value is the one-step build's, bit for bit: padded cells
never survive, C-order over the padded grid keeps each step's real cells
in their one-step order, and the cap keeps :func:`best_first`'s order
(:func:`best_first_rows`).  One-step pushes and short bursts are built
one step at a time.

The same loose coupling factors the transition block: chain ``i``'s
term depends on the current joint state only through chain ``i``'s own
candidate, so it is built once per (candidate of ``i``, previous joint
state) from per-candidate tables -- a row of the ``(M, M·M)`` macro table
and a continue/reset table on chain ``i``'s own candidate grid, each read
by a single-axis gather -- and row-gathered onto the joint axis.  The
chains' terms are summed on the transposed ``(C, P)`` grid and returned
as its F-ordered ``(P, C)`` view, whose reduced axis Viterbi reads
contiguously; :func:`~repro.core.kernels.fold_block` folds it with the
step's scores into a C-contiguous linear block for the sum-product steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
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
from repro.core.state_space import CandidateSet, StackedCandidates, StateSpaceBuilder
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

#: A range of at least this many steps is built in stacked passes by
#: :meth:`_NChainTrellis.prepare`, anything shorter one step at a time; the
#: joint grid is stacked only on a per-user grid of at most
#: :data:`STACKED_MAX_CELLS` cells (``max_states_per_user ** N``), and
#: otherwise built per step from the stacked candidates and rule masks.
#: Measured on perfbench's pair and trio corpora (2-vCPU host, best of 9
#: interleaved CPU times of building every piece of the test split in
#: ranges of k steps, evidence tables prebuilt), against the one-step
#: build: pairs at their cap of 36 (1,296 cells, stacked grid) ran 0.38x
#: at k = 2, 0.62x at 4, 0.99x at 8, 1.25x at 12, 1.35x at 16, 1.61x at 24
#: and 2.12x over whole 120-step sessions; trios at 24 (13,824 padded
#: cells against about 5,900 real ones, per-step grid) ran 0.60x at 2,
#: 0.72x at 4, 0.91x at 8, 1.00x at 12, 1.04x at 16, 1.09x at 24 and 1.11x
#: over whole 80-step sessions.  A stacked trio grid ran 0.3x-0.4x at every
#: range length.  Both break even at 8-12 steps, so 16 keeps a margin:
#: offline decode is stacked for every N, while one-step pushes and short
#: ``push_many`` bursts are not.
STACKED_MIN_STEPS = 16
STACKED_MAX_CELLS = 4096
#: Padded cells per chunk of a stacked build, counted on the joint grid
#: where it is stacked and on the widest pair mask otherwise (2 MB of
#: float64 scores or rule-hit counts).
STACKED_CHUNK_CELLS = 1 << 18

#: A joint piece's encoding ``(grids, m, l)`` (see :class:`_NChainTrellis`).
JointEnc = Tuple[np.ndarray, Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]
#: Cross-rule keep masks by chain pair ``(a, b)``, ``a < b``
#: (:meth:`NChainHdbn._pair_masks`).
PairMasks = Dict[Tuple[int, int], np.ndarray]


def best_first(scores: np.ndarray, cap: int) -> np.ndarray:
    """Indices of the *cap* highest *scores*, descending, ties to the lowest
    index: ``np.argsort(-scores, kind="stable")[:cap]`` for ``0 < cap <
    len(scores)``, from a partition and a sort of the kept entries only."""
    k = scores.size - cap
    v = np.partition(scores, k)[k]
    kept = (scores > v).nonzero()[0]
    kept = np.concatenate((kept, (scores == v).nonzero()[0][: cap - kept.size]))
    return kept[np.argsort(-scores[kept], kind="stable")]


def best_first_rows(scores: np.ndarray, keep: np.ndarray, cap: int) -> np.ndarray:
    """(R, cap) column indices: row r's :func:`best_first` over the cells
    ``keep[r]`` selects, which must number more than *cap*: the *cap*
    highest kept scores, descending, ties to the lowest column."""
    scores = np.where(keep, scores, -np.inf)
    k = scores.shape[1] - cap
    v = np.partition(scores, k, axis=1)[:, k : k + 1]
    top = scores > v
    tie = keep & (scores == v)
    top |= tie & (np.cumsum(tie, axis=1) <= cap - np.count_nonzero(top, axis=1)[:, None])
    cells = top.nonzero()[1].reshape(-1, cap)
    order = np.argsort(-np.take_along_axis(scores, cells, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cells, order, axis=1)


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
        p_change = np.clip(cm.macro_end_prob, MIN_CHANGE_PROB, 0.5)
        # Off-diagonal renormalised coupled transition: given a change
        # happens, where does the macro go (conditioned on the partner)?
        coupled = cm.macro_trans_coupled.copy()
        n_m = cm.n_macro
        coupled[np.arange(n_m), :, np.arange(n_m)] = 0.0
        row = coupled.sum(axis=2, keepdims=True)
        change_trans = coupled / np.maximum(row, _TINY)
        self._log_subloc_prior = np.log(cm.subloc_prior + _TINY)
        # Row i of the cover table is the (L,) mask of the sub-locations
        # that explain fired area i: a known sub-location, then a known
        # room; the last row, explaining nothing, stands for any other.
        room_of_l = self.builder.room_of_l
        rooms = sorted(set(room_of_l))
        self._cover_table = np.vstack([
            np.eye(len(room_of_l), dtype=bool),
            [room_of_l == r for r in rooms],
            np.zeros((1, len(room_of_l)), dtype=bool),
        ])
        self._area_ids = {("subloc", f): i for i, f in enumerate(cm.subloc_index.labels)}
        self._area_ids.update({("room", r): len(room_of_l) + i for i, r in enumerate(rooms)})
        self._macro_block_table, self._loc_block_table = build_transition_tables(
            p_change, change_trans, cm.micro_end_prob, cm.subloc_trans
        )

    # -- training -----------------------------------------------------------------

    def fit(self, train: Dataset) -> "NChainHdbn":
        """Fit emissions: DA Gaussian mixtures + object-evidence CPT."""
        fit_emission_tables(self, train)
        return self

    # -- per-step machinery ----------------------------------------------------------

    def _pair_masks(self, per_user, ambs) -> Optional[PairMasks]:
        """Each chain pair's cross-rule keep mask, keyed ``(a, b)`` with
        ``a < b``, or ``None`` without cross rules: one step's ``(n_a,
        n_b)`` masks from its :class:`CandidateSet` list and
        :class:`StepItems`, or a range's ``(S, K_a, K_b)`` masks from
        :class:`StackedCandidates` and a list of one :class:`StepItems`
        per step.  The pruner's grid tables and gate memo serve every
        ordered chain pair."""
        pruner = self._cross_pruner
        if pruner is None:
            return None
        keep = pruner.keep_rows if isinstance(ambs, list) else pruner.keep
        pairs = combinations(range(len(per_user)), 2)
        return {(a, b): keep(ambs, per_user[a], per_user[b]) for a, b in pairs}

    def _joint_candidates(
        self,
        seq: LabeledSequence,
        t: int,
        per_user: List[CandidateSet],
        masks: Optional[PairMasks],
        stats: DecodeStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Joint candidates as (N, J) index rows into the per-user lists,
        and their scores; rule-pruned and capped joint states are counted
        into *stats*.  *masks* are the step's :meth:`_pair_masks`.

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
        if masks is not None:
            for (a, b), keep in masks.items():
                mask &= keep.reshape((shape[a],) + ones[a + 1:b] + on_axis[b])
            # Count only joint states actually removed: when every one
            # fails the rules the pruner keeps them all, and reporting the
            # would-be removals would inflate the Fig 11 overhead metric.
            if mask.any():
                stats.pruned_joint_states += mask.size - int(np.count_nonzero(mask))
            else:
                mask[...] = True

        # Joint explaining-away over all chains: a fired area is unexplained
        # where every chain's candidate misses it.
        ids, penalty = self._fired_areas(step)
        for cover in self._cover_table[ids]:
            unexplained = True
            for c, v in zip(per_user, on_axis):
                unexplained = unexplained & ~cover[c.l].reshape(v)
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

    def _fired_areas(self, step) -> Tuple[List[int], float]:
        """Cover-table rows of the areas that fired at *step* -- its fired
        sub-locations, or its fired rooms when no sub-location fired -- and
        the log cost of leaving one of them unexplained."""
        none = len(self._cover_table) - 1
        if step.sublocs_fired:
            ids = [self._area_ids.get(("subloc", f), none) for f in step.sublocs_fired]
            return ids, UNEXPLAINED_SUBLOC_PENALTY
        ids = [self._area_ids.get(("room", r), none) for r in step.rooms_fired]
        return ids, UNEXPLAINED_ROOM_PENALTY

    def _joint_candidates_stacked(
        self,
        seq: LabeledSequence,
        t0: int,
        per_user: List[StackedCandidates],
        masks: Optional[PairMasks],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_joint_candidates` for every step of a
        :class:`StackedCandidates` range, in stacked passes on the padded
        grid ``S x K_0 x ... x K_{N-1}``; *masks* are the range's
        :meth:`_pair_masks`.

        Returns ``(grids, scores, ends, pruned, capped)``: step ``t0 + s``
        has the ``(N, J)`` index rows ``grids[:, ends[s]:ends[s + 1]]`` and
        the scores ``scores[ends[s]:ends[s + 1]]``, and removed
        ``pruned[s]`` / ``capped[s]`` joint states.  Every term is added to
        the real cells in the one-step order; padded cells never survive.
        C-order over the padded grid keeps each step's real cells in their
        one-step order, so the survivors of an uncapped step come out in
        that order, and a capped step's best cells in :func:`best_first`'s
        (:func:`best_first_rows`), ties to the lowest flat index."""
        n = len(per_user)
        n_steps = per_user[0].m.shape[0]
        shape = (n_steps,) + tuple(c.m.shape[1] for c in per_user)
        ones = (1,) * n
        on_axis = [(n_steps,) + ones[:u] + (k,) + ones[u + 1:] for u, k in enumerate(shape[1:])]
        scores = sum(c.emissions.reshape(v) for c, v in zip(per_user, on_axis))
        valid = np.ones(shape, dtype=bool)
        for c, v in zip(per_user, on_axis):
            valid &= c.valid().reshape(v)
        mask = valid
        pruned = np.zeros(n_steps, dtype=int)
        if masks is not None:
            mask = valid.copy()
            for (a, b), keep in masks.items():
                mask &= keep.reshape(on_axis[a][: a + 2] + ones[a + 1 : b] + on_axis[b][b + 1 :])
            # As one step: count only removed states, and keep them all
            # when every one fails the rules.
            kept = np.count_nonzero(mask.reshape(n_steps, -1), axis=1)
            some = kept > 0
            pruned[some] = np.prod([c.n for c in per_user], axis=0)[some] - kept[some]
            mask[~some] = valid[~some]

        # Joint explaining-away: each step's fired areas, padded to the
        # range's most; a padded area adds nothing.
        fired = [self._fired_areas(seq.steps[t]) for t in range(t0, t0 + n_steps)]
        n_areas = max(len(ids) for ids, _ in fired)
        if n_areas:
            lead = (n_steps,) + ones
            has = np.arange(n_areas) < np.array([len(ids) for ids, _ in fired])[:, None]
            ids = np.full(has.shape, len(self._cover_table) - 1)
            ids[has] = [i for area_ids, _ in fired for i in area_ids]
            cover = self._cover_table[ids]
            penalty = np.array([p for _, p in fired]).reshape(lead)
            for f in range(n_areas):
                unexplained = True
                for c, v in zip(per_user, on_axis):
                    miss = ~np.take_along_axis(cover[:, f], c.l, axis=1)
                    unexplained = unexplained & miss.reshape(v)
                np.add(
                    scores, np.where(unexplained, penalty, 0.0), out=scores,
                    where=has[:, f].reshape(lead),
                )

        flat_mask = mask.reshape(n_steps, -1)
        flat_scores = scores.reshape(n_steps, -1)
        survivors = np.count_nonzero(flat_mask, axis=1)
        cap = self.max_joint_states
        if self.rule_set is not None:
            cap = min(cap, self.max_joint_states_pruned)
        capped = np.maximum(survivors - cap, 0)
        over = capped > 0
        kept = survivors - capped
        if over.any():
            best = best_first_rows(flat_scores[over], flat_mask[over], cap)
            flat_mask[over] = False
        step_of, cell = flat_mask.nonzero()
        if over.any():
            # Splice each capped step's best cells in among the others.
            fill = np.arange(kept.max()) < kept[:, None]
            padded = np.zeros(fill.shape, dtype=cell.dtype)
            padded[fill & ~over[:, None]] = cell
            padded[over, :cap] = best
            cell = padded[fill]
            step_of = np.repeat(np.arange(n_steps), kept)
        scores = flat_scores[step_of, cell]
        ends = np.concatenate(([0], np.cumsum(kept)))
        grids = np.array(np.unravel_index(cell, shape[1:]))
        return grids, scores, ends, pruned, capped

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


def _piece(joint: Tuple[np.ndarray, np.ndarray], per_user: List[CandidateSet]) -> TrellisPiece:
    """The piece of a step's joint ``(grids, scores)`` over its per-user
    candidates."""
    grids, scores = joint
    enc = (grids, tuple(c.m for c in per_user), tuple(c.l for c in per_user))
    return TrellisPiece(scores=scores, enc=enc)


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
        #: Pieces built by :meth:`build_range` and not yet handed out:
        #: step -> (piece, pruned, capped joint states).
        self._ready: Dict[int, Tuple[TrellisPiece, int, int]] = {}

    def prepare(self, t0: int, t1: int) -> None:
        """Batch-build the per-sequence evidence tables for ``[t0, t1)``
        ahead of the per-step ``piece`` calls, and, when the range has at
        least :data:`STACKED_MIN_STEPS` steps, every step's piece
        (:meth:`build_range`)."""
        self._kern.ensure(t0, t1)
        t1 = min(t1, len(self.seq.steps))
        if t1 - t0 >= STACKED_MIN_STEPS:
            self.build_range(t0, t1)

    def build_range(self, t0: int, t1: int, chunk_cells: int = STACKED_CHUNK_CELLS) -> None:
        """Build the pieces of steps ``[t0, t1)`` in stacked passes over a
        leading step axis: each resident's candidates in one
        :func:`~repro.core.chdbn.build_candidate_set` call, then, chunk by
        chunk, each chain pair's rule mask in one
        :meth:`~repro.core.rule_kernel.CrossRulePruner.keep_rows` call and
        the joint candidates.  Those are stacked too when the per-user grid
        has at most :data:`STACKED_MAX_CELLS` cells
        (``max_states_per_user ** N``), and otherwise built one step at a
        time on the step's own rows and its slice of the masks.  A chunk
        holds at most *chunk_cells* padded cells of the stacked grid, or of
        the widest stacked pair mask, and at least one step.  :meth:`piece`
        hands each piece out once; every value equals the one-step
        build's."""
        model, seq, kern = self.model, self.seq, self._kern
        kern.ensure(t0, t1)
        ambs = [kern.step_items(t) for t in range(t0, t1)]
        per_user = [build_candidate_set(model, seq, rid, t0, kern, t1, ambs) for rid in self.rids]
        widths = sorted(c.m.shape[1] for c in per_user)
        stack_grid = model.max_states_per_user ** len(self.rids) <= STACKED_MAX_CELLS
        cells = int(np.prod(widths)) if stack_grid else widths[-2] * widths[-1]
        size = max(1, chunk_cells // cells)
        for a in range(0, t1 - t0, size):
            chunk = [c.rows(a, a + size) for c in per_user]
            masks = model._pair_masks(chunk, ambs[a : a + size])
            if stack_grid:
                grids, scores, ends, pruned, capped = model._joint_candidates_stacked(
                    seq, t0 + a, chunk, masks
                )
                ends, pruned, capped = ends.tolist(), pruned.tolist(), capped.tolist()
            for s in range(len(chunk[0].n)):
                # Each piece owns copies of its rows: a view would keep the
                # whole chunk alive while a stream's lag window holds it.
                users = [c.step(s) for c in chunk]
                if stack_grid:
                    lo, hi = ends[s], ends[s + 1]
                    joint = grids[:, lo:hi].copy(), scores[lo:hi].copy()
                    counts = pruned[s], capped[s]
                else:
                    step_masks = None if masks is None else {
                        (u, w): keep[s, : len(users[u]), : len(users[w])]
                        for (u, w), keep in masks.items()
                    }
                    stats = DecodeStats()
                    joint = model._joint_candidates(seq, t0 + a + s, users, step_masks, stats)
                    counts = stats.pruned_joint_states, stats.capped_joint_states
                self._ready[t0 + a + s] = (_piece(joint, users), *counts)

    def release(self, t: int) -> None:
        """Drop the evidence tables below step *t*, and the prebuilt
        pieces no one asked for."""
        self._kern.release(t)
        # A fresh dict: one that held a burst keeps its table when emptied.
        self._ready = {k: v for k, v in self._ready.items() if k >= t}

    def piece(self, t: int) -> TrellisPiece:
        """Step *t*'s piece: the prebuilt one, whose pruned and capped
        joint states are counted now, or a one-step build."""
        ready = self._ready.pop(t, None)
        if ready is not None:
            piece, pruned, capped = ready
            self.stats.pruned_joint_states += pruned
            self.stats.capped_joint_states += capped
            return piece
        model, seq, kern = self.model, self.seq, self._kern
        kern.ensure(0, t + 1)
        per_user = [build_candidate_set(model, seq, rid, t, kern) for rid in self.rids]
        masks = model._pair_masks(per_user, kern.step_items(t))
        return _piece(model._joint_candidates(seq, t, per_user, masks, self.stats), per_user)

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
