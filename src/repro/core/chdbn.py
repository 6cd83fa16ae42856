"""Building blocks of the Coupled Hierarchical Dynamic Bayesian Network.

The CACE model of §IV/§VI is a loosely-coupled HDBN over the hidden joint
state ``(m_i, l_i)`` (macro activity + sub-location) of every resident,
implemented for any number of residents by
:class:`~repro.core.loosely_coupled.NChainHdbn` (two residents are its
N=2 case).  This module holds that model's pieces, and the per-resident
evidence it shares with the NCR strategy's frame-wise classifier
:class:`~repro.core.hdbn.SingleUserHdbn`:

* **End-of-sequence-marker semantics (Eqns 3-6).**  A macro state may only
  change when its micro sequence terminates (blocking), and a micro
  sequence cannot outlive its macro (termination).  Flattened, this yields:
  within a macro, the sub-location chain evolves by the mined per-macro
  micro transition with per-step end probability; on a macro change the
  micro chain *resets* from the new macro's prior (Augmentations 1-3).
  :func:`build_transition_tables` precomputes both branches as log
  tables, the coupled macro table laid out ``(M, M·M)``.
  :func:`chain_block` reads one chain's term from per-candidate tables
  with single-axis gathers -- a macro-table row per current candidate,
  and a continue/reset table on the chain's own candidate grid -- and
  returns it transposed, current candidates by previous joint states, so
  that the joint block is built by contiguous row gathers.
* **Coupled macro transitions** ``P(m' | m, partner_m)`` (Augmentation 3),
  shrunk toward the uncoupled table where data is sparse.
* **Gaussian-mixture emissions** per macro over the continuous feature
  vector, with components discovered by deterministic annealing
  (Augmentation 4), alongside CPTs for the observed postural/gestural
  micro context, iBeacon soft location evidence, and PIR room
  compatibility (:func:`init_user_evidence`, :func:`fit_emission_tables`).
* **Per-resident candidates** (:func:`build_candidate_set`): memoised
  encoded candidate lists, single-user rule pruning, and emission scores
  indexed from the per-sequence tables of
  :class:`~repro.core.kernels.SequenceKernel` -- for one step, or for a
  range of steps in stacked passes that give every step the same list.

The seed's straight-line implementation is preserved in
``tests/decode_spec.py`` as the executable specification; equivalence
is asserted by ``tests/test_kernels.py``, ``tests/test_decode_stats.py``
and ``benchmarks/bench_decode_hotpath.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.emissions import ObjectEvidenceTable
from repro.core.kernels import SequenceKernel
from repro.core.rule_kernel import SingleRulePruner
from repro.core.state_space import CandidateSet, StackedCandidates, StateSpaceBuilder
from repro.datasets.trace import Dataset, LabeledSequence
from repro.micro.annealing import DeterministicAnnealing
from repro.mining.constraint_miner import ConstraintModel

_TINY = 1e-12

#: Floor of the per-step macro change probability: a macro whose segments
#: never ended in training can still change.
MIN_CHANGE_PROB = 1e-4


def chain_block(
    macro_table: np.ndarray,
    loc_table: np.ndarray,
    log_subloc_prior: np.ndarray,
    prev_grid: np.ndarray,
    m_prev: np.ndarray,
    l_prev: np.ndarray,
    partner_prev: np.ndarray,
    m_cur: np.ndarray,
    l_cur: np.ndarray,
) -> np.ndarray:
    """One chain's term of the transition between P previous joint states
    and the chain's own C current candidates, transposed: ``(C, P)``.

    ``prev_grid`` (P,) indexes each previous joint state's candidate in the
    chain's own previous list ``(m_prev, l_prev)``; ``partner_prev`` (P,)
    is the partner chain's previous macro.  Two addends, each a
    single-axis gather of a per-candidate table:

    * the macro term: each current macro reads its row of the ``(M, M·M)``
      macro table, and each previous joint state its column
      ``m_prev·M + partner_prev``;
    * the continue/reset term, built once on the chain's own ``(C,
      n_prev)`` candidate grid and gathered onto the joint axis by column
      (``prev_grid``).

    Entry ``[c, p]`` is the sum of the same two table entries the full
    ``(P, C)`` grid would add at ``[p, c]``, so the transpose is bit-equal
    to it.  No per-step transcendentals.
    """
    joint_key = m_prev[prev_grid] * macro_table.shape[0] + partner_prev
    macro_term = macro_table[m_cur].take(joint_key, axis=1)
    same = m_cur[:, None] == m_prev[None, :]
    cont = loc_table[m_cur[:, None], l_prev[None, :], l_cur[:, None]]
    reset = log_subloc_prior[m_cur, l_cur][:, None]
    return macro_term + np.where(same, cont, reset).take(prev_grid, axis=1)


@dataclass
class _MacroGmm:
    """Per-macro Gaussian mixture over emission features (Augmentation 4)."""

    weights: np.ndarray
    means: np.ndarray
    inv_covs: np.ndarray
    logdets: np.ndarray


class GmmBank:
    """Every macro's mixture components stacked for one-shot evaluation.

    Components sit on a ``(macros, K)`` grid, ragged mixtures padded with
    ``-inf`` log weights (a padded component adds ``exp(-inf) = 0`` to its
    macro's sum).  One einsum scores every observation against every
    component and one log-sum-exp over the K axis reduces all macros at
    once, with the same elementwise ops and per-macro reduction order as
    one mixture's scalar density (``decode_spec.macro_gmm_log_pdf`` in the
    tests; exactly so while mixtures have fewer than 8 components: past
    that, numpy's unrolled pairwise sum groups a padded macro's terms
    differently, a last-ulp difference).
    """

    def __init__(self, gmms: Dict[int, "_MacroGmm"]) -> None:
        self.macros = np.array(sorted(gmms), dtype=int)
        if not gmms:
            return
        n_k = max(g.weights.shape[0] for g in gmms.values())
        dim = gmms[self.macros[0]].means.shape[1]
        shape = (len(gmms), n_k)
        log_weights = np.full(shape, -np.inf)
        means = np.zeros(shape + (dim,))
        inv_covs = np.zeros(shape + (dim, dim))
        logdets = np.zeros(shape)
        for i, m in enumerate(self.macros):
            g = gmms[m]
            k = g.weights.shape[0]
            log_weights[i, :k] = np.log(g.weights + _TINY)
            means[i, :k] = g.means
            inv_covs[i, :k] = g.inv_covs
            logdets[i, :k] = g.logdets
        self.n_k = n_k
        self.log_weights = log_weights.ravel()
        self.means = means.reshape(-1, dim)
        self.inv_covs = inv_covs.reshape(-1, dim, dim)
        self.logdets = logdets.ravel()

    def log_pdf_rows(self, x_rows: np.ndarray, n_macro: int) -> np.ndarray:
        """(T, n_macro) log densities ``log p(x_t | macro)`` of a stacked
        batch of observations.

        Every row is independent of the batch it comes in, and every
        fitted entry equals that macro's scalar density bit for bit.
        Columns of macros without a fitted mixture stay 0.0 (they add no
        evidence).
        """
        n_rows, d = x_rows.shape
        out = np.zeros((n_rows, n_macro))
        if not self.macros.size:
            return out
        diffs = x_rows[:, None, :] - self.means[None, :, :]
        quads = np.einsum("tki,kij,tkj->tk", diffs, self.inv_covs, diffs)
        comps = (
            self.log_weights - 0.5 * (d * np.log(2 * np.pi) + self.logdets + quads)
        ).reshape(n_rows, self.macros.size, self.n_k)
        mx = comps.max(axis=2, keepdims=True)
        out[:, self.macros] = mx[:, :, 0] + np.log(np.exp(comps - mx).sum(axis=2))
        return out


def fit_object_cpt(
    train: Dataset, constraint_model: ConstraintModel, alpha: float = 1.0
) -> Tuple[Dict[str, int], np.ndarray]:
    """Bernoulli object-evidence model ``P(object fires | macro)``.

    Object sensors are unattributed — the partner's stove firing counts
    against *my* macro too — but the counted statistics absorb that
    confound and still separate e.g. cooking (stove) from prepare_food
    (kettle), the two activities the paper reports as hardest.

    Returns ``(object_index, log_table)`` with ``log_table[m, o, fired]``.
    Every (resident, step) adds one to ``counts[m, o, fired]`` for each
    object in one ``np.add.at``; the counts are whole numbers, so their
    order does not matter.
    """
    objects = sorted(
        {obj for seq in train.sequences for step in seq.steps for obj in step.objects_fired}
    )
    object_index = {obj: i for i, obj in enumerate(objects)}
    n_m = constraint_model.n_macro
    counts = np.full((n_m, max(len(objects), 1), 2), alpha, dtype=float)
    macros: List[np.ndarray] = []
    fired: List[np.ndarray] = []
    for seq in train.sequences:
        pairs = list(zip(seq.steps, seq.truths))
        on = np.array(
            [[obj in step.objects_fired for obj in objects] for step, _ in pairs],
            dtype=np.intp,
        ).reshape(len(pairs), len(objects))
        for rid in seq.resident_ids:
            macros.append(
                constraint_model.macro_index.encode(truth[rid].macro for _, truth in pairs)
            )
            fired.append(on)
    if objects and macros:
        np.add.at(
            counts,
            (np.concatenate(macros)[:, None], np.arange(len(objects)), np.concatenate(fired)),
            1.0,
        )
    probs = counts / counts.sum(axis=2, keepdims=True)
    return object_index, np.log(probs)


def fit_macro_gmms(
    train: Dataset,
    constraint_model: ConstraintModel,
    n_components: int,
    rng: np.random.Generator,
) -> Dict[int, _MacroGmm]:
    """Per-macro Gaussian mixtures with DA-discovered means.

    Component means come from deterministic annealing (Augmentation 4's
    low-level state discovery); all components of a macro share the pooled
    within-macro covariance.  Session-level feature drift means test points
    land *between* narrow DA clusters, and the shared broad covariance
    keeps the feature channel honest about that uncertainty instead of
    issuing catastrophic log penalties.
    """
    by_macro: Dict[int, List[np.ndarray]] = {}
    for seq in train.sequences:
        for rid in seq.resident_ids:
            for step, truth in zip(seq.steps, seq.truths):
                m = constraint_model.macro_index.index(truth[rid].macro)
                by_macro.setdefault(m, []).append(
                    np.asarray(step.observations[rid].features, dtype=float)
                )
    gmms: Dict[int, _MacroGmm] = {}
    for m, rows in by_macro.items():
        x = np.vstack(rows)
        da = DeterministicAnnealing(
            n_clusters=min(n_components, x.shape[0]),
            seed=rng.integers(0, 2**31),
        )
        means, labels = da.fit_gaussians(x)
        counts = np.bincount(labels, minlength=means.shape[0]).astype(float)
        weights = counts / counts.sum()
        dim = x.shape[1]
        pooled = np.atleast_2d(np.cov(x.T)) if x.shape[0] > 1 else np.eye(dim)
        pooled = pooled + 1e-4 * np.eye(dim)
        inv_pooled = np.linalg.inv(pooled)
        logdet = np.linalg.slogdet(pooled)[1]
        inv_covs = np.broadcast_to(inv_pooled, (means.shape[0], dim, dim)).copy()
        logdets = np.full(means.shape[0], logdet)
        gmms[m] = _MacroGmm(weights, means, inv_covs, logdets)
    return gmms


def build_transition_tables(
    p_change: np.ndarray,
    change_trans: np.ndarray,
    micro_end: np.ndarray,
    subloc_trans: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Precomputed transition log tables of the coupled model.

    Returns ``(macro_table, loc_table)`` such that the per-step chain
    blocks are pure gathers (log of a gathered entry equals the gathered
    entry of the logged table, bit for bit): the stay/change branch is
    baked into the coupled macro table's ``m_prev == m_cur`` diagonal, and
    the micro continue/jump branch into the loc table's ``l_prev ==
    l_cur`` diagonal.  The macro table is laid out ``(M, M·M)``,
    C-contiguous: row ``m_cur``, column ``m_prev·M + partner_prev``, so
    :func:`chain_block` reads each current candidate's contiguous row.
    """
    n_m = p_change.shape[0]
    idx = np.arange(n_m)
    macro_table = np.log(p_change)[:, None, None] + np.log(change_trans + _TINY)
    macro_table[idx, :, idx] = np.log1p(-p_change)[:, None]
    macro_table = np.ascontiguousarray(macro_table.reshape(n_m * n_m, n_m).T)
    e = micro_end[:, None, None]
    loc_table = np.log(e * subloc_trans + _TINY)
    jdx = np.arange(subloc_trans.shape[1])
    loc_cont = np.log((1.0 - e) + e * subloc_trans + _TINY)
    loc_table[:, jdx, jdx] = loc_cont[:, jdx, jdx]
    return macro_table, loc_table


def init_user_evidence(model) -> None:
    """Shared ``__post_init__`` body for the HDBN family: the state-space
    builder, the single-user rule pruner, and the occupancy log tables the
    per-resident evidence reads."""
    cm = model.constraint_model
    # The builder over-generates; emission evidence picks the survivors.
    model.builder = StateSpaceBuilder(
        constraint_model=cm, max_states_per_user=4 * model.max_states_per_user
    )
    # Rules are compiled once per model into a table on the (macro, subloc)
    # grid with per-step scalar gates (repro.core.rule_kernel).
    model._single_rules = model.rule_set.single_user() if model.rule_set else None
    model._single_pruner = (
        SingleRulePruner(model._single_rules, cm, model.builder.room_of_l)
        if model._single_rules is not None
        else None
    )
    # Evidence terms use the per-step *occupancy* tables: segment-start
    # priors see one count per segment and smooth to near-uniform, which
    # silently removes the posture/gesture/location channels.
    model._log_posture = np.log(cm.posture_occupancy + _TINY)
    model._log_gesture = (
        np.log(cm.gesture_occupancy + _TINY) if cm.gesture_occupancy is not None else None
    )
    model._log_subloc_occ = np.log(cm.subloc_occupancy + _TINY)


def fit_emission_tables(model, train: Dataset) -> None:
    """Shared ``fit`` body for the HDBN family: DA Gaussian mixtures,
    object-evidence CPT, and their precomputed hot-path banks."""
    model.gmms_ = fit_macro_gmms(
        train, model.constraint_model, model.gmm_components, model._rng
    )
    model._object_index, model._log_obj = fit_object_cpt(train, model.constraint_model)
    model._obj_evidence = ObjectEvidenceTable(model._object_index, model._log_obj)
    model._gmm_bank = GmmBank(model.gmms_)


def build_candidate_set(
    model,
    seq: LabeledSequence,
    rid: str,
    t: int,
    kern: SequenceKernel,
    t1: Optional[int] = None,
) -> Union[CandidateSet, StackedCandidates]:
    """One resident's evidence-truncated candidates for step *t*, or for
    every step of ``[t, t1)`` when *t1* is given.

    Shared by the per-user and the coupled model: fetch the memoised
    candidate codes, apply single-user rule pruning (the rules are
    canonicalised to slot u1 by ``CorrelationRuleSet.single_user()``, so
    the same grid table is correct for every resident — slot-invariance is
    regression-tested in ``tests/test_decode_stats.py``), score emissions,
    and keep the best ``max_states_per_user``.  Emission scores come from
    *kern*'s precomputed per-sequence tables.

    A step returns a :class:`CandidateSet`.  A range returns the
    :class:`StackedCandidates` of :func:`_stacked_candidates`, whose row
    for each step holds exactly that step's :class:`CandidateSet`.
    """
    if t1 is not None:
        return _stacked_candidates(model, seq, rid, t, t1, kern)
    obs = seq.steps[t].observations[rid]
    m, l = model.builder.candidate_codes(obs)
    if model._single_pruner is not None:
        keep = model._single_pruner.keep(m, l, obs, kern.step_items(t))
        if keep.any() and not keep.all():
            m, l = m[keep], l[keep]
    emissions = kern.emissions(rid, t, m, l)
    if len(m) > model.max_states_per_user:
        top = np.argsort(emissions)[::-1][: model.max_states_per_user]
        m, l, emissions = m[top], l[top], emissions[top]
    return CandidateSet(m=m, l=l, emissions=emissions, obs=obs)


def _stacked_candidates(
    model, seq: LabeledSequence, rid: str, t0: int, t1: int, kern: SequenceKernel
) -> StackedCandidates:
    """:func:`build_candidate_set` for every step of ``[t0, t1)`` in
    stacked passes over a leading step axis.

    Codes are padded to the range's longest list; the single-user keep is
    one gather from the stacked grid masks, and a step keeps its whole
    list when none or all of it survives, as a single step does; survivors
    are compacted to the front of their row in order; emissions are one
    stacked gather (:meth:`SequenceKernel.emission_rows`).  Only a step
    over the per-user cap runs the per-step ``argsort`` on its own 1-D
    row, so every row equals the step's :class:`CandidateSet`.
    """
    steps = range(t0, t1)
    obs = [seq.steps[t].observations[rid] for t in steps]
    codes = [model.builder.candidate_codes(o) for o in obs]
    n = np.array([len(m) for m, _ in codes])
    valid = np.arange(n.max()) < n[:, None]
    m = np.zeros(valid.shape, dtype=int)
    l = np.zeros(valid.shape, dtype=int)
    m[valid] = np.concatenate([c[0] for c in codes])
    l[valid] = np.concatenate([c[1] for c in codes])
    if model._single_pruner is not None:
        keep = valid & model._single_pruner.keep_rows(
            m, l, obs, [kern.step_items(t) for t in steps]
        )
        kept = np.count_nonzero(keep, axis=1)
        prune = (kept > 0) & (kept < n)
        if prune.any():
            keep[~prune] = valid[~prune]
            n = np.where(prune, kept, n)
            valid = np.arange(valid.shape[1]) < n[:, None]
            m[valid], l[valid] = m[keep], l[keep]
    emissions = kern.emission_rows(rid, t0, m, l)
    cap = model.max_states_per_user
    for s in np.flatnonzero(n > cap):
        top = np.argsort(emissions[s, : n[s]].copy())[::-1][:cap]
        m[s, :cap], l[s, :cap], emissions[s, :cap] = m[s, top], l[s, top], emissions[s, top]
        n[s] = cap
    k = int(n.max())
    return StackedCandidates(m=m[:, :k], l=l[:, :k], emissions=emissions[:, :k], n=n, obs=obs)
