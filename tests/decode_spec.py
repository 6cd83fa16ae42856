"""Seed (pre-optimisation) implementation of the decode hot path: the test spec.

The optimised hot path in :mod:`repro.core.chdbn`,
:mod:`repro.core.loosely_coupled`, :mod:`repro.core.rule_kernel`,
:mod:`repro.core.emissions` and :mod:`repro.core.kernels` replaces
per-pair label lookups, per-state ``frozenset`` algebra, the per-object
Python loop and per-step evidence dispatch with precomputed encodings,
boolean/float vectors and per-sequence batched tables.  Tests import this
module as ``decode_spec``; it keeps the original straight-line
implementation as the *executable specification*: labelled states and
their item sets, the item-set rule checks, the scalar emission forms,
every HDBN family's per-resident candidates
(:func:`reference_user_candidates`), the coupled model's per-step
machinery (:class:`ReferenceNChainHdbn`, built from a fitted model by
:func:`reference_model`), and the log-domain sum-product steps and
fixed-lag smoother (:class:`ReferenceOnlineSmoother`).  Candidate
*generation* is not specified here: :func:`candidate_states` labels the
production builder's codes.  ``tests/test_kernels.py``,
``tests/test_decode_stats.py``, ``tests/test_properties.py`` and
``benchmarks/bench_decode_hotpath.py`` check the optimised path against
it: identical labels and DecodeStats, and marginals to 1e-10.

Do not "optimise" this file — its value is being slow and obviously
faithful to the seed.

One caveat on "bit-for-bit": the optimised object channel sums the
per-object Bernoulli logs in a different order (precomputed all-off
baseline plus fired-object corrections), so emission *scores* can differ
from this reference in the last ulp.  Label identity therefore holds
empirically at the seeds the tests and benchmarks pin, not as an IEEE
guarantee under exact score ties.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.api import DecodeStats, TrellisPiece
from repro.core.chdbn import MIN_CHANGE_PROB, GmmBank
from repro.core.emissions import ObjectEvidenceTable
from repro.core.kernels import PIR_MISS_PENALTY, macro_argmax
from repro.core.loosely_coupled import (
    UNEXPLAINED_ROOM_PENALTY,
    UNEXPLAINED_SUBLOC_PENALTY,
    JointEnc,
    NChainHdbn,
    _NChainTrellis,
    joint_codes,
)
from repro.core.smoother import OnlineSmoother
from repro.core.state_space import CandidateSet, StateSpaceBuilder, _ROOM_OF
from repro.datasets.trace import ContextStep, LabeledSequence, ResidentObservation
from repro.mining.context_rules import Item, ambient_items, state_items
from repro.mining.correlation_miner import CorrelationRuleSet
from repro.mining.rules import AssociationRule
from repro.models.chmm import soft_location_log_evidence
from repro.models.distributions import GaussianEmission

_TINY = 1e-12


# -- labelled states and item sets ----------------------------------------------


class UserState(NamedTuple):
    """One hidden-state hypothesis for one resident."""

    macro: str
    subloc: str


def label_states(cm, m: np.ndarray, l: np.ndarray) -> List[UserState]:
    """The labelled states of ``(macro, subloc)`` code arrays."""
    return [UserState(cm.macro_index.label(a), cm.subloc_index.label(b)) for a, b in zip(m, l)]


def candidate_states(builder: StateSpaceBuilder, obs: ResidentObservation) -> List[UserState]:
    """The builder's candidates for one observation, as labelled states."""
    return label_states(builder.constraint_model, *builder.candidate_codes(obs))


def state_item_set(slot: str, state: UserState, obs: ResidentObservation) -> FrozenSet[Item]:
    """Items describing a hypothesised state plus observed micro context."""
    return frozenset(
        state_items(
            slot,
            macro=state.macro,
            posture=obs.posture,
            gesture=obs.gesture,
            subloc=state.subloc,
            room=_ROOM_OF.get(state.subloc, "unknown"),
        )
    )


def ambient_item_set(step: ContextStep) -> FrozenSet[Item]:
    """Items for the step's unattributed ambient evidence."""
    return frozenset(ambient_items(sorted(step.rooms_fired), sorted(step.objects_fired)))


# -- item-set rule checks -------------------------------------------------------


def satisfied_by(rule: AssociationRule, items: FrozenSet[Item]) -> bool:
    """True when the rule does not contradict *items*.

    A rule is violated only if it fires (every antecedent element is in
    *items*) and *items* assigns the consequent's (slot, time, attr) a
    *different* value; an absent attribute is not a violation (open-world
    reading).
    """
    if not rule.antecedent.issubset(items):
        return True
    if rule.consequent in items:
        return True
    key = (rule.consequent.slot, rule.consequent.time, rule.consequent.attr)
    for item in items:
        if (item.slot, item.time, item.attr) == key and item.value != rule.consequent.value:
            return False
    return True


def is_consistent(rules: CorrelationRuleSet, items: FrozenSet[Item]) -> bool:
    """Can this joint assignment coexist with every rule of *rules*?  The
    rules are indexed by trigger item on the first check of a rule set."""
    index = getattr(rules, "_trigger_index", None)
    if index is None:
        forcing_by_trigger: Dict[Item, List[AssociationRule]] = {}
        for rule in rules.forcing_rules:
            forcing_by_trigger.setdefault(min(rule.antecedent), []).append(rule)
        exclusion_partners: Dict[Item, Set[Item]] = {}
        for excl in rules.exclusions:
            exclusion_partners.setdefault(excl.a, set()).add(excl.b)
            exclusion_partners.setdefault(excl.b, set()).add(excl.a)
        index = rules._trigger_index = (forcing_by_trigger, exclusion_partners)
    forcing_by_trigger, exclusion_partners = index
    for item in items:
        partners = exclusion_partners.get(item)
        if partners and not partners.isdisjoint(items):
            return False
    for item in items:
        for rule in forcing_by_trigger.get(item, ()):
            if not satisfied_by(rule, items):
                return False
    return True


# -- scalar emissions -----------------------------------------------------------


def gaussian_log_pdf(emission: GaussianEmission, state: int, x: np.ndarray) -> float:
    """Log density of observation *x* under *state*'s Gaussian."""
    x = np.asarray(x, dtype=float)
    mean = emission.means.get(state, emission._pooled_mean)
    if mean is None:
        mean = np.zeros(emission.dim)
    inv, logdet = emission._inv_logdet(state)
    diff = x - mean
    # The scalar einsum matches the contraction order of the batched path
    # in log_pdf_rows, keeping per-row and per-batch results bit-identical.
    quad = float(np.einsum("i,ij,j->", diff, inv, diff))
    return -0.5 * (emission.dim * np.log(2 * np.pi) + logdet + quad)


def macro_gmm_log_pdf(gmm, x: np.ndarray) -> float:
    """Log density of *x* under one macro's ``_MacroGmm``."""
    d = x.shape[0]
    diffs = x[None, :] - gmm.means  # (K, d)
    quads = np.einsum("ki,kij,kj->k", diffs, gmm.inv_covs, diffs)
    comps = np.log(gmm.weights + _TINY) - 0.5 * (d * np.log(2 * np.pi) + gmm.logdets + quads)
    m = comps.max()
    return float(m + np.log(np.exp(comps - m).sum()))


def object_log_evidence(
    object_index: Dict[str, int],
    log_table: np.ndarray,
    macro_idx: int,
    objects_fired,
) -> float:
    """Sum of per-object Bernoulli log likelihoods for one macro, one
    object at a time."""
    if not object_index:
        return 0.0
    total = 0.0
    for obj, o in object_index.items():
        total += log_table[macro_idx, o, 1 if obj in objects_fired else 0]
    return float(total)


def reference_user_state_emissions(
    model, seq: LabeledSequence, rid: str, t: int, states: List[UserState]
) -> np.ndarray:
    """Seed per-state emission loop (per-macro cache, per-object loop)."""
    cm = model.constraint_model
    step = seq.steps[t]
    obs = step.observations[rid]
    x = np.asarray(obs.features, dtype=float)
    features_ok = x.size > 0 and not np.isnan(x).any()
    p_idx = (
        cm.posture_index.index(obs.posture)
        if (obs.posture is not None and obs.posture in cm.posture_index)
        else None
    )
    g_idx = (
        cm.gesture_index.index(obs.gesture)
        if (
            cm.gesture_index is not None
            and obs.gesture is not None
            and obs.gesture in cm.gesture_index
        )
        else None
    )
    loc_weight = soft_location_log_evidence(
        cm.subloc_index, obs.position_estimate, obs.subloc_candidates
    )

    macro_cache: Dict[int, float] = {}
    out = np.empty(len(states))
    for i, state in enumerate(states):
        m = cm.macro_index.index(state.macro)
        l = cm.subloc_index.index(state.subloc)
        if m not in macro_cache:
            score = 0.0
            if p_idx is not None:
                score += model._log_posture[m, p_idx]
            if g_idx is not None and model._log_gesture is not None:
                score += model._log_gesture[m, g_idx]
            if features_ok:
                gmm = model.gmms_.get(m)
                if gmm is not None:
                    score += macro_gmm_log_pdf(gmm, x)
            score += object_log_evidence(
                getattr(model, "_object_index", {}),
                getattr(model, "_log_obj", np.zeros((0, 0, 2))),
                m,
                step.objects_fired,
            )
            macro_cache[m] = score
        score = macro_cache[m] + loc_weight[l] + model._log_subloc_occ[m, l]
        room = _ROOM_OF.get(state.subloc)
        if step.rooms_fired and room not in step.rooms_fired:
            score += PIR_MISS_PENALTY
        out[i] = score
    return out


# -- candidates, pruning and transitions ----------------------------------------


#: Each constraint model's seed transition parameters, by id (the model
#: is held, so its id is not reused while cached).
_CHAIN_PARAMS: Dict[int, tuple] = {}


def chain_params(cm) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(p_change, change_trans, micro_end, subloc_trans)`` of the seed's
    coupled chain, derived from the constraint model *cm* as the seed did:
    the clipped per-step macro change probability and the off-diagonal
    renormalised coupled macro transition."""
    hit = _CHAIN_PARAMS.get(id(cm))
    if hit is None or hit[0] is not cm:
        p_change = np.clip(cm.macro_end_prob, MIN_CHANGE_PROB, 0.5)
        coupled = cm.macro_trans_coupled.copy()
        n_m = cm.n_macro
        coupled[np.arange(n_m), :, np.arange(n_m)] = 0.0
        change_trans = coupled / np.maximum(coupled.sum(axis=2, keepdims=True), _TINY)
        hit = (cm, (p_change, change_trans, cm.micro_end_prob, cm.subloc_trans))
        _CHAIN_PARAMS[id(cm)] = hit
    return hit[1]


def reference_chain_block(
    model,
    m_prev: np.ndarray,
    l_prev: np.ndarray,
    partner_prev: np.ndarray,
    m_cur: np.ndarray,
    l_cur: np.ndarray,
) -> np.ndarray:
    """Seed per-step coupled chain block (transcendentals on every call)."""
    p_change, change_trans, micro_end, subloc_trans = chain_params(model.constraint_model)
    same = m_prev[:, None] == m_cur[None, :]
    log_stay = np.log1p(-p_change[m_prev])[:, None]
    log_change = (
        np.log(p_change[m_prev])[:, None]
        + np.log(change_trans[m_prev[:, None], partner_prev[:, None], m_cur[None, :]] + _TINY)
    )
    macro_term = np.where(same, log_stay, log_change)

    micro_end = micro_end[m_cur][None, :]
    same_loc = l_prev[:, None] == l_cur[None, :]
    cont = np.log(
        (1.0 - micro_end) * same_loc
        + micro_end * subloc_trans[m_cur[None, :], l_prev[:, None], l_cur[None, :]]
        + _TINY
    )
    reset = model._log_subloc_prior[m_cur, l_cur][None, :]
    loc_term = np.where(same, cont, reset)
    return macro_term + loc_term


def reference_user_candidates(
    model, seq: LabeledSequence, rid: str, t: int
) -> CandidateSet:
    """Seed per-user candidate builder: frozenset item-set rule pruning,
    per-state emission loop, label-based encodings resolved at the end."""
    obs = seq.steps[t].observations[rid]
    states = candidate_states(model.builder, obs)
    if model._single_rules is not None:
        amb = ambient_item_set(seq.steps[t])
        kept = [
            s
            for s in states
            if is_consistent(model._single_rules, state_item_set("u1", s, obs) | amb)
        ]
        if kept:
            states = kept
    emissions = reference_user_state_emissions(model, seq, rid, t, states)
    if len(states) > model.max_states_per_user:
        top = np.argsort(emissions)[::-1][: model.max_states_per_user]
        states = [states[i] for i in top]
        emissions = emissions[top]
    cm = model.constraint_model
    m = np.array([cm.macro_index.index(s.macro) for s in states], dtype=int)
    l = np.array([cm.subloc_index.index(s.subloc) for s in states], dtype=int)
    return CandidateSet(m=m, l=l, emissions=emissions, obs=obs)


def reference_cross_prune_mask(
    model,
    step,
    s1: List[UserState],
    obs1,
    s2: List[UserState],
    obs2,
) -> np.ndarray:
    """Seed cross-user pruning via frozenset item-set algebra (one ordered
    pair of chains; slot labels are always ``u1``/``u2`` because the rules
    are mined on symmetrised two-user slots)."""
    amb = ambient_item_set(step)
    items1 = [state_item_set("u1", s, obs1) for s in s1]
    items2 = [state_item_set("u2", s, obs2) for s in s2]
    keep = np.ones((len(s1), len(s2)), dtype=bool)

    for excl in model._cross_rules.exclusions:
        a, b = excl.a, excl.b
        has_a = np.array([a in it for it in items1]) if a.slot == "u1" else None
        has_b = np.array([b in it for it in items2]) if b.slot == "u2" else None
        if has_a is None or has_b is None:
            continue
        keep &= ~np.outer(has_a, has_b)

    for rule in model._cross_rules.forcing_rules:
        ant1 = frozenset(i for i in rule.antecedent if i.slot == "u1")
        ant2 = frozenset(i for i in rule.antecedent if i.slot == "u2")
        ant_amb = frozenset(i for i in rule.antecedent if i.slot == "amb")
        if not ant_amb <= amb:
            continue
        sat1 = np.array([ant1 <= it for it in items1])
        sat2 = np.array([ant2 <= it for it in items2])
        cons = rule.consequent
        key = (cons.time, cons.attr)
        if cons.slot == "u1":
            viol = np.array(
                [
                    any((i.time, i.attr) == key and i.value != cons.value for i in it)
                    and cons not in it
                    for it in items1
                ]
            )
            keep &= ~np.outer(sat1 & viol, sat2)
        elif cons.slot == "u2":
            viol = np.array(
                [
                    any((i.time, i.attr) == key and i.value != cons.value for i in it)
                    and cons not in it
                    for it in items2
                ]
            )
            keep &= ~np.outer(sat1, sat2 & viol)
    return keep


class _SpecTrellis(_NChainTrellis):
    """The N-chain trellis session with the seed's per-step pieces: the
    spec scores every step itself, so there are no per-sequence tables to
    prepare or release."""

    def prepare(self, t0: int, t1: int) -> None:
        pass

    def release(self, t: int) -> None:
        pass

    def piece(self, t: int) -> TrellisPiece:
        model, seq = self.model, self.seq
        per_user = [reference_user_candidates(model, seq, rid, t) for rid in self.rids]
        grids, scores = model._joint_candidates(seq, t, per_user, None, self.stats)
        enc = (grids, tuple(c.m for c in per_user), tuple(c.l for c in per_user))
        return TrellisPiece(scores=scores, enc=enc)


class ReferenceNChainHdbn(NChainHdbn):
    """`NChainHdbn` with the seed-style per-step hot path.

    Mirrors the fast model's operation order exactly (pairwise prune,
    emissions, joint coverage, cap) while computing every term the seed
    way: frozenset item-set algebra, per-state emission loops,
    label-string comparisons, and per-step transcendental chain blocks on
    the full (P, C) joint grid.  The recursions are inherited.
    """

    def trellis_sessions(self, seq: LabeledSequence, stats=None) -> List[_SpecTrellis]:
        stats = stats if stats is not None else DecodeStats()
        return [_SpecTrellis(self, seq, tuple(seq.resident_ids), stats)]

    def _transition_block(self, prev: JointEnc, cur: JointEnc) -> np.ndarray:
        """Seed (P, C) joint log transition: every chain's block on the
        full joint grid; chain i conditions on chain (i+1) mod N."""
        m_prev, l_prev = joint_codes(prev)
        m_cur, l_cur = joint_codes(cur)
        n = m_prev.shape[0]
        total = reference_chain_block(
            self, m_prev[0], l_prev[0], m_prev[1 % n], m_cur[0], l_cur[0]
        )
        for u in range(1, n):
            total += reference_chain_block(
                self, m_prev[u], l_prev[u], m_prev[(u + 1) % n], m_cur[u], l_cur[u]
            )
        return total

    def _joint_candidates(
        self,
        seq: LabeledSequence,
        t: int,
        per_user: List[CandidateSet],
        masks,
        stats: DecodeStats,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The seed's joint layer; it checks the rules itself, so *masks*
        (the production pair masks) is ignored."""
        step = seq.steps[t]
        n = len(per_user)
        states = [label_states(self.constraint_model, c.m, c.l) for c in per_user]
        grids = np.indices([len(c) for c in per_user]).reshape(n, -1)  # (N, prod)

        if self._cross_rules is not None:
            mask = np.ones(grids.shape[1], dtype=bool)
            for a in range(n):
                for b in range(a + 1, n):
                    pair_keep = reference_cross_prune_mask(
                        self, step, states[a], per_user[a].obs, states[b], per_user[b].obs
                    )
                    mask &= pair_keep[grids[a], grids[b]]
            if mask.any():
                stats.pruned_joint_states += int((~mask).sum())
                grids = grids[:, mask]

        scores = np.zeros(grids.shape[1])
        for u, c in enumerate(per_user):
            scores += c.emissions[grids[u]]

        # Joint explaining-away over all chains (seed-style label compares).
        locs = [np.array([s.subloc for s in su], dtype=object) for su in states]
        for fired in step.sublocs_fired:
            covered = np.zeros(grids.shape[1], dtype=bool)
            for u in range(n):
                covered |= locs[u][grids[u]] == fired
            scores += np.where(covered, 0.0, UNEXPLAINED_SUBLOC_PENALTY)
        if not step.sublocs_fired and step.rooms_fired:
            rooms = [
                np.array([_ROOM_OF.get(s.subloc) for s in su], dtype=object) for su in states
            ]
            for fired in step.rooms_fired:
                covered = np.zeros(grids.shape[1], dtype=bool)
                for u in range(n):
                    covered |= rooms[u][grids[u]] == fired
                scores += np.where(covered, 0.0, UNEXPLAINED_ROOM_PENALTY)

        cap = self.max_joint_states
        if self.rule_set is not None:
            cap = min(cap, self.max_joint_states_pruned)
        if grids.shape[1] > cap:
            stats.capped_joint_states += grids.shape[1] - cap
            # Descending score, ties to the lowest flat index.
            top = np.argsort(-scores, kind="stable")[:cap]
            grids = grids[:, top]
            scores = scores[top]
        return grids, scores


def reference_model(fast: NChainHdbn) -> ReferenceNChainHdbn:
    """The spec decoder of a fitted *fast* model, without a second fit.

    Built with *fast*'s constructor arguments, so it derives its own
    builder, rule pruners and transition tables, then given *fast*'s
    fitted emission state the way ``repro.util.artifacts`` loads a model.
    """
    spec = ReferenceNChainHdbn(
        **{f.name: getattr(fast, f.name) for f in dataclasses.fields(fast) if f.init}
    )
    spec.gmms_ = fast.gmms_
    spec._object_index = fast._object_index
    spec._log_obj = fast._log_obj
    spec._obj_evidence = ObjectEvidenceTable(spec._object_index, spec._log_obj)
    spec._gmm_bank = GmmBank(spec.gmms_)
    return spec


# -- log-domain sum-product steps and fixed-lag smoother --------------------------


def _lse(arr: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable log-sum-exp along *axis*."""
    m = arr.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis=axis) + np.log(np.exp(arr - m).sum(axis=axis))


def reference_forward_step(
    alpha_prev: np.ndarray, log_t: Optional[np.ndarray], scores: np.ndarray
) -> np.ndarray:
    """Log-domain sum-product forward update over a ``(P, C)`` log block."""
    if log_t is None:
        return scores
    return scores + _lse(alpha_prev[:, None] + log_t, axis=0)


def reference_backward_step(
    beta_next: np.ndarray,
    log_t: Optional[np.ndarray],
    scores_next: np.ndarray,
    n_cur: int,
) -> np.ndarray:
    """Log-domain sum-product backward update onto *n_cur* candidates."""
    if log_t is None:
        return np.zeros(n_cur)
    return _lse(log_t + (scores_next + beta_next)[None, :], axis=1)


def reference_posterior(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalised posterior over one piece's candidates from its log-domain
    forward and backward messages."""
    log_gamma = alpha + beta
    return np.exp(log_gamma - _lse(log_gamma, axis=0))


def reference_macro_marginals(
    sess, piece: TrellisPiece, gamma: np.ndarray
) -> Dict[str, np.ndarray]:
    """Per-resident ``(M,)`` macro marginals of one piece under the
    candidate posterior *gamma*, accumulated with ``np.add.at``."""
    out: Dict[str, np.ndarray] = {}
    for rid, codes in zip(sess.rids, sess.macros(piece)):
        marg = np.zeros(len(sess.macro_index))
        np.add.at(marg, codes, gamma)
        out[rid] = marg
    return out


class ReferenceOnlineSmoother(OnlineSmoother):
    """Fixed-lag smoother that stores each push's log transition block and
    runs the log-domain steps over it, one backward sweep per commit: the
    spec the normalised linear :class:`~repro.core.smoother.OnlineSmoother`
    must commit the same labels as."""

    def push(self, t: int) -> Optional[Dict[str, str]]:
        if self._sessions is None:
            raise RuntimeError("call start() before push()")
        if t != self._pushed:
            raise ValueError(f"steps must arrive in order; expected {self._pushed}, got {t}")
        stats = self.stats
        for k, sess in enumerate(self._sessions):
            piece = sess.piece(t)
            pieces = self._pieces[k]
            pieces.append(piece)
            stats.joint_states += len(piece)
            if t == 0:
                log_t = None
                alpha = sess.initial_alpha(piece)
            else:
                log_t = sess.transition(pieces[-2], piece)
                if log_t is not None:
                    stats.transition_entries += log_t.size
                alpha = reference_forward_step(self._alphas[k][-1], log_t, piece.scores)
            self._trans[k].append(log_t)
            self._alphas[k].append(alpha)
        stats.steps += 1
        self._pushed = t + 1
        commit_t = t - self.lag
        if commit_t < 0:
            return None
        labels = self._smooth_at(commit_t, t)
        self._committed = commit_t + 1
        return labels

    def _smooth_at(self, commit_t: int, horizon: int) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for k, sess in enumerate(self._sessions):
            pieces = self._pieces[k]
            beta = np.zeros_like(self._alphas[k][horizon])
            for t in range(horizon - 1, commit_t - 1, -1):
                beta = reference_backward_step(
                    beta, self._trans[k][t + 1], pieces[t + 1].scores, len(pieces[t])
                )
            gamma = reference_posterior(self._alphas[k][commit_t], beta)
            for rid, marg in reference_macro_marginals(sess, pieces[commit_t], gamma).items():
                out[rid] = sess.macro_index.label(macro_argmax(marg))
        return out

    def flush(self) -> List[Dict[str, str]]:
        if self._sessions is None:
            return []
        out = [self._smooth_at(t, self._pushed - 1) for t in range(self._committed, self._pushed)]
        self._committed = self._pushed
        return out
