"""Sequence-level decode kernels and the offline driver of every recogniser.

Three layers live here:

* **Trellis recursions** — :func:`viterbi_path`, :func:`forward_alphas`
  and :func:`backward_betas` are the broadcast max-plus / sum-product
  updates over encoded candidate lists; :func:`forward_step` and
  :func:`backward_step` are their one-step updates, which the fixed-lag
  :class:`~repro.core.smoother.OnlineSmoother` runs as well.  Viterbi
  works on the ``(P, C)`` log transition blocks.  The sum-product steps
  run on *normalised linear messages*: each step's log block and that
  step's own candidate scores are folded once (:func:`fold_block`) into
  ``F = exp(log_t + scores - (max(log_t) + max(scores)))``, and every use
  of it is then one BLAS mat-vec, ``alpha_prev @ F`` forward and
  ``F @ beta_next`` backward, rescaled to max 1.  Step 0 and frame-wise
  chains start from ``exp(v - max v)`` (:func:`normalised`).  No log,
  exp or scale is kept per step: a posterior only normalises, so the
  scales cancel.  Precondition: the finite entries of ``log_t + scores``
  span fewer than about 700 nats, or ``F`` underflows to 0 (``-inf``
  entries map to an exact 0 and are fine).  Every fitted table is floored
  at ``log(x + 1e-12)`` per term, so a block's span is bounded by the
  model.
  The log-domain spec of these steps is ``reference_forward_step`` /
  ``reference_backward_step`` in ``tests/decode_spec.py``.
* **The offline driver** — :func:`decode` and :func:`posterior_marginals`
  run those recursions over a recogniser's ``trellis_sessions`` pieces and
  are the ``decode`` / ``posterior_marginals`` body of every family.
  They hand the whole session to the trellis session's ``prepare`` before
  asking for its pieces, so a session that can build a range of pieces at
  once does: the N-chain session builds every resident's candidates
  (scored by :meth:`SequenceKernel.emission_rows` in one gather) and every
  chain pair's rule masks in stacked passes over a leading step axis, and
  a pair session's joint candidates too; trios and quads build each
  step's joint grid on its own rows (:mod:`repro.core.loosely_coupled`).
  Offline decoding and the smoother therefore share one recursion and one
  read-out (:func:`posterior`, :func:`macro_marginals`,
  :func:`macro_argmax`): at ``lag >= len(seq)`` the smoother commits
  exactly the argmax of the offline marginals.
* **:class:`SequenceKernel`** — per-sequence batched evidence.  Every
  resident's rows for the steps being built come from one stacked pass:
  the ``(R·T, d)`` feature rows are scored against the stacked GMM bank
  with one einsum and one log-sum-exp, posture/gesture CPT rows are
  gathered at once, each step's object-evidence vector is looked up once
  and added to every resident's row, and soft-location rows are batched.
  The per-step trellis machinery then only *indexes* precomputed rows.
  Correlation-rule gates are not built here: the rule pruners of
  :mod:`repro.core.rule_kernel` memoise them per observed context.

Equivalence contract: every evidence row is assembled from the same
elementary float operations as the seed's per-state loop
(``reference_user_state_emissions`` in ``tests/decode_spec.py``) —
batching an elementwise op over rows does not change any individual
result — except the object channel, which sums a precomputed baseline and
fired-object corrections and can differ from the seed in the last ulp.
Equivalence against that spec is asserted per strategy in
``tests/test_kernels.py`` and ``benchmarks/bench_decode_hotpath.py``.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.api import DecodeStats, TrellisPiece
from repro.core.rule_kernel import StepItems
from repro.datasets.trace import LabeledSequence, StepWindow
from repro.home.layout import SUB_REGIONS
from repro.models.chmm import LOCATION_KERNEL_SIGMA_M
from repro.obs import runtime as _obs

_MEMO_LIMIT = 8192

#: Log penalty for hypothesising a sub-location whose room shows no PIR
#: activity while other rooms do (PIRs miss stationary residents).
PIR_MISS_PENALTY = -1.5


def viterbi_path(
    initial: np.ndarray,
    per_scores: Sequence[np.ndarray],
    transition: Callable[[int], Optional[np.ndarray]],
    stats: Optional[DecodeStats] = None,
) -> List[int]:
    """Max-plus forward pass + backtrace over a ragged candidate trellis.

    ``initial`` is the step-0 delta (prior + scores, already combined by
    the caller); ``per_scores[t]`` the per-candidate evidence at step t;
    ``transition(t)`` the (P, C) log transition block between steps t-1
    and t, or None for a chain without temporal coupling (step t then
    stands alone on its own scores).  Returns the argmax index path (one
    index per step).
    """
    delta = initial
    backs: List[np.ndarray] = [np.zeros(len(delta), dtype=int)]
    for t in range(1, len(per_scores)):
        log_t = transition(t)
        if log_t is None:
            backs.append(np.full(len(per_scores[t]), int(np.argmax(delta))))
            delta = per_scores[t]
            continue
        if stats is not None:
            stats.transition_entries += log_t.size
        total = delta[:, None] + log_t
        back = np.argmax(total, axis=0)
        delta = total[back, np.arange(total.shape[1])] + per_scores[t]
        backs.append(back)

    idx = int(np.argmax(delta))
    path: List[int] = [idx]
    for t in range(len(per_scores) - 1, 0, -1):
        path.append(int(backs[t][path[-1]]))
    path.reverse()
    return path


def _finite_max(v: np.ndarray) -> float:
    """``max(v)``, or 0 when it is not finite."""
    m = float(v.max())
    return m if math.isfinite(m) else 0.0


def normalised(v: np.ndarray) -> np.ndarray:
    """``exp(v - max v)``: a log message as a normalised linear one (an
    all ``-inf`` message gives zeros)."""
    return np.exp(v - _finite_max(v))


def _rescaled(v: np.ndarray) -> np.ndarray:
    """*v* divided in place by its max; an all-zero *v* is left as is."""
    m = v.max()
    if m > 0:
        v /= m
    return v


def fold_block(log_t: Optional[np.ndarray], scores: np.ndarray) -> Optional[np.ndarray]:
    """The linear block of one step: the ``(P, C)`` log transition block
    into it with the step's own ``(C,)`` candidate scores folded in,
    ``exp(log_t + scores - (max(log_t) + max(scores)))`` (None: no
    temporal coupling).

    The block is C-contiguous whatever the layout of *log_t* (an N-chain
    block is an F-ordered view): the BLAS mat-vecs of :func:`forward_step`
    and :func:`backward_step` pick their kernel, and so their accumulation
    order, from the layout of the block, and a C-contiguous block keeps
    every alpha and beta bit-identical whichever layout *log_t* came in.
    """
    if log_t is None:
        return None
    block = np.add(log_t, scores - (_finite_max(log_t) + _finite_max(scores)), order="C")
    return np.exp(block, out=block)


def forward_step(
    alpha_prev: np.ndarray, block: Optional[np.ndarray], scores: np.ndarray
) -> np.ndarray:
    """One sum-product forward update through a :func:`fold_block` block,
    rescaled to max 1 (``block`` None: no temporal coupling, the step
    stands alone on its own *scores*, which a block already holds).  A
    candidate no predecessor reaches reads 0."""
    if block is None:
        return normalised(scores)
    return _rescaled(alpha_prev @ block)


def backward_step(beta_next: np.ndarray, block: Optional[np.ndarray], n_cur: int) -> np.ndarray:
    """One sum-product backward update onto a step with *n_cur*
    candidates, rescaled to max 1 (``block`` is the :func:`fold_block`
    block into the next step; None: future evidence is independent of
    this step)."""
    if block is None:
        return np.ones(n_cur)
    return _rescaled(block @ beta_next)


def forward_alphas(
    initial: np.ndarray,
    per_scores: Sequence[np.ndarray],
    blocks: Sequence[Optional[np.ndarray]],
) -> List[np.ndarray]:
    """Sum-product forward recursion over a ragged candidate trellis from
    the step-0 log message *initial* (``blocks[t]`` is the
    :func:`fold_block` block into step t; ``blocks[0]`` is unused)."""
    alphas: List[np.ndarray] = [normalised(initial)]
    for t in range(1, len(per_scores)):
        alphas.append(forward_step(alphas[-1], blocks[t], per_scores[t]))
    return alphas


def backward_betas(
    per_scores: Sequence[np.ndarray], blocks: Sequence[Optional[np.ndarray]]
) -> List[np.ndarray]:
    """Sum-product backward recursion over the blocks
    :func:`forward_alphas` runs on."""
    n = len(per_scores)
    betas: List[Optional[np.ndarray]] = [None] * n
    betas[-1] = np.ones(per_scores[-1].shape[0])
    for t in range(n - 2, -1, -1):
        betas[t] = backward_step(betas[t + 1], blocks[t + 1], per_scores[t].shape[0])
    return betas


def posterior(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalised posterior over one piece's candidates from its linear
    forward and backward messages."""
    gamma = alpha * beta
    gamma /= gamma.sum()
    return gamma


#: Macro marginals within this of the largest are tied.  Float rounding
#: separates exact ties by about 1e-16, far below it; a genuine lead this
#: small is not evidence for either macro.
_TIE_ATOL = 1e-9


def macro_argmax(marg: np.ndarray) -> int:
    """Index of the largest macro marginal, a tie going to the first tied
    macro, so a committed label does not depend on the order in which
    the recursion's float sums were taken."""
    return int(np.argmax(marg >= marg.max() - _TIE_ATOL))


def macro_marginals(sess, piece: TrellisPiece, gamma: np.ndarray) -> Dict[str, np.ndarray]:
    """Per-resident ``(M,)`` macro marginals of one piece under the
    candidate posterior *gamma*."""
    n_macro = len(sess.macro_index)
    return {
        rid: np.bincount(codes, weights=gamma, minlength=n_macro)
        for rid, codes in zip(sess.rids, sess.macros(piece))
    }


# -- offline driver ------------------------------------------------------------------


def _session_pieces(sess, n_steps: int, stats: DecodeStats) -> List[TrellisPiece]:
    """Every step's piece of one session, after one ``prepare`` of the
    whole session (a batched evidence build, and for an N-chain session of
    at least ``STACKED_MIN_STEPS`` steps a stacked build of its candidates
    and rule masks, and of a pair session's joint candidates)."""
    sess.prepare(0, n_steps)
    pieces = [sess.piece(t) for t in range(n_steps)]
    stats.joint_states += sum(len(p) for p in pieces)
    return pieces


def _blocks(sess, pieces: List[TrellisPiece]) -> Callable[[int], Optional[np.ndarray]]:
    """``transition(t)`` callback: the block between pieces t-1 and t."""
    return lambda t: sess.transition(pieces[t - 1], pieces[t])


def decode(
    model, seq: LabeledSequence, family: str, stats: Optional[DecodeStats] = None
) -> Dict[str, List[str]]:
    """Offline Viterbi macro labels for every resident of *seq*.

    The ``decode`` body of every recogniser family: each trellis session's
    pieces are built, the max-plus recursion runs over them, and each
    step's labels are read from the encoding of the path state.  The
    call's work is counted into *stats* (discarded when omitted), so
    concurrent decodes over one model never share a counter.
    """
    n_steps = len(seq)
    stats = stats if stats is not None else DecodeStats()
    stats.steps += n_steps
    with _obs.timed_span(
        "decode",
        metric=f"decode.{family}.seconds",
        counts={f"decode.{family}.steps": n_steps},
        family=family,
    ):
        out: Dict[str, List[str]] = {}
        for sess in model.trellis_sessions(seq, stats):
            pieces = _session_pieces(sess, n_steps, stats)
            if not pieces:
                out.update({rid: [] for rid in sess.rids})
                continue
            with _obs.timed_span(
                "trellis_sweep", metric=f"decode.{family}.sweep_seconds", family=family
            ):
                path = viterbi_path(
                    sess.initial_alpha(pieces[0]),
                    [p.scores for p in pieces],
                    _blocks(sess, pieces),
                    stats,
                )
            names = sess.macro_index.labels
            codes = [sess.macros(p) for p in pieces]
            for u, rid in enumerate(sess.rids):
                out[rid] = [names[c[u][j]] for c, j in zip(codes, path)]
        return out


def posterior_marginals(
    model, seq: LabeledSequence, stats: Optional[DecodeStats] = None
) -> Dict[str, np.ndarray]:
    """Per-resident posterior macro marginals ``(T, M)`` of *seq*.

    The ``posterior_marginals`` body of every recogniser family:
    forward-backward over the same pieces :func:`decode` runs on.  Each
    transition block is built and folded once and feeds both
    recursions, so what the call counts into *stats* is exactly the work
    :func:`decode` counts.
    """
    n_steps = len(seq)
    stats = stats if stats is not None else DecodeStats()
    stats.steps += n_steps
    out: Dict[str, np.ndarray] = {}
    for sess in model.trellis_sessions(seq, stats):
        pieces = _session_pieces(sess, n_steps, stats)
        for rid in sess.rids:
            out[rid] = np.zeros((n_steps, len(sess.macro_index)))
        if not pieces:
            continue
        scores = [p.scores for p in pieces]
        blocks: List[Optional[np.ndarray]] = [None]
        for t in range(1, n_steps):
            log_t = sess.transition(pieces[t - 1], pieces[t])
            if log_t is not None:
                stats.transition_entries += log_t.size
            blocks.append(fold_block(log_t, scores[t]))
        alphas = forward_alphas(sess.initial_alpha(pieces[0]), scores, blocks)
        betas = backward_betas(scores, blocks)
        for t, piece in enumerate(pieces):
            gamma = posterior(alphas[t], betas[t])
            for rid, marg in macro_marginals(sess, piece, gamma).items():
                out[rid][t] = marg
    return out


def _cpt_rows(log_cpt: np.ndarray, index) -> Tuple[np.ndarray, Dict[str, int]]:
    """``(rows, row_of)``: the (C + 1, M) transposed log CPT of an observed
    micro channel, with a trailing zero row, and the label -> row map.
    Missing and unknown labels read the zero row (they add no evidence)."""
    rows = np.vstack([log_cpt.T, np.zeros(log_cpt.shape[0])])
    return rows, {label: i for i, label in enumerate(index.labels)}


class SequenceKernel:
    """Batched per-sequence evidence tables for the HDBN hot path.

    Built lazily and incrementally: :meth:`ensure` extends the tables to
    cover a step range, so offline decoding batches the whole sequence in
    one shot while the fixed-lag smoother grows the same tables as steps
    stream in and drops each step's tables once the step is pieced
    (:meth:`release`), so a live stream holds O(1) steps of them.  Each
    build stacks every resident's rows, so a one-step build pays its
    numpy dispatch once, not once per resident.  Neither batch size nor
    stacking changes any value: every row is independent
    of the rows built with it.  Rule gates are not among the tables: the
    pruners of :mod:`repro.core.rule_kernel` memoise their own.
    """

    def __init__(self, model, seq: LabeledSequence, rids: Sequence[str]) -> None:
        self.model = model
        self.seq = seq
        self.rids = tuple(rids)
        cm = model.constraint_model
        self._n_macro = cm.n_macro
        self._n_loc = len(cm.subloc_index)
        # Sub-region centres resolved once per kernel.
        idx: List[int] = []
        cx: List[float] = []
        cy: List[float] = []
        for sr in SUB_REGIONS:
            if sr.sr_id in cm.subloc_index:
                idx.append(cm.subloc_index.index(sr.sr_id))
                cx.append(sr.center[0])
                cy.append(sr.center[1])
        self._center_idx = np.array(idx, dtype=int)
        self._center_x = np.array(cx)
        self._center_y = np.array(cy)
        self._room_of_l = model.builder.room_of_l
        self._posture_rows, self._posture_row_of = _cpt_rows(model._log_posture, cm.posture_index)
        self._gesture_rows, self._gesture_row_of = (
            _cpt_rows(model._log_gesture, cm.gesture_index)
            if model._log_gesture is not None and cm.gesture_index is not None
            else (None, {})
        )
        # Observability handles are resolved once per kernel; None when
        # metrics are off, so the hot path pays one pointer check.
        reg = _obs.registry_if_enabled()
        self._h_prepare = reg.histogram("kernel.prepare_seconds") if reg else None
        self._c_built = reg.counter("kernel.steps_built") if reg else None
        self._built = 0
        self._pir_memo: Dict[frozenset, np.ndarray] = {}
        self._cand_loc_memo: Dict[Tuple[str, ...], np.ndarray] = {}
        # Per-step tables, indexed by absolute step; :meth:`release` drops
        # the steps no later lookup reads.
        self._step_items = StepWindow()
        self._pir_masks = StepWindow()
        self._macro_rows = {r: StepWindow() for r in self.rids}
        self._loc_rows = {r: StepWindow() for r in self.rids}
        self._tables: List[StepWindow] = [
            self._step_items,
            self._pir_masks,
            *self._macro_rows.values(),
            *self._loc_rows.values(),
        ]

    # -- construction -------------------------------------------------------------

    def ensure(self, t0: int, t1: int) -> None:
        """Extend the precomputed tables to cover steps up to ``t1``.

        Idempotent; already-built steps are never recomputed.  ``t0`` is
        advisory (tables are contiguous from the release floor).
        """
        t1 = min(t1, len(self.seq.steps))
        start = self._built
        if t1 <= start:
            return
        if self._h_prepare is None and not _obs.tracing_enabled():
            self._build(start, t1)
            return
        with _obs.span("kernel.prepare", t0=start, t1=t1):
            tb = time.perf_counter()
            self._build(start, t1)
        if self._h_prepare is not None:
            self._h_prepare.observe(time.perf_counter() - tb)
            self._c_built.inc(t1 - start)

    def _build(self, start: int, t1: int) -> None:
        """Extend every per-sequence table from ``start`` to ``t1``.

        The rows of every resident for the new steps are built in one
        stacked, resident-major pass (row ``r * n + i`` is resident r at
        step ``start + i``) and then split back per resident.
        """
        steps = self.seq.steps[start:t1]
        n = len(steps)
        self._step_items.extend(StepItems(step) for step in steps)
        self._pir_masks.extend(self._pir_mask(step.rooms_fired) for step in steps)
        obs_list = [step.observations[rid] for rid in self.rids for step in steps]
        loc_rows = self._build_loc_rows(obs_list)
        macro_rows = self._build_macro_rows(steps, obs_list)
        for r, rid in enumerate(self.rids):
            part = slice(r * n, (r + 1) * n)
            self._loc_rows[rid].extend(loc_rows[part])
            self._macro_rows[rid].extend(macro_rows[part])
        self._built = t1

    def release(self, t: int) -> None:
        """Drop every per-step table below step *t*; a later lookup of a
        released step raises :class:`IndexError`."""
        for table in self._tables:
            table.release(t)

    def _pir_mask(self, rooms_fired) -> Optional[np.ndarray]:
        """(L,) bool "sub-location's room fired" — None when no PIRs fired."""
        if not rooms_fired:
            return None
        mask = self._pir_memo.get(rooms_fired)
        if mask is None:
            mask = np.array([r in rooms_fired for r in self._room_of_l], dtype=bool)
            if len(self._pir_memo) >= _MEMO_LIMIT:
                self._pir_memo.clear()
            self._pir_memo[rooms_fired] = mask
        return mask

    def _candidate_loc_row(self, candidates: Tuple[str, ...]) -> np.ndarray:
        """Soft-location row when no position estimate exists (memoised;
        rows are shared read-only across steps with equal candidates)."""
        row = self._cand_loc_memo.get(candidates)
        if row is None:
            subloc_index = self.model.constraint_model.subloc_index
            row = np.full(self._n_loc, -12.0)
            for sr_id in candidates:
                if sr_id in subloc_index:
                    row[subloc_index.index(sr_id)] = 0.0
            if len(self._cand_loc_memo) >= _MEMO_LIMIT:
                self._cand_loc_memo.clear()
            self._cand_loc_memo[candidates] = row
        return row

    def _build_loc_rows(self, obs_list) -> List[np.ndarray]:
        """(L,) soft-location log-evidence row per observation: the
        squared-distance kernel batched over every position estimate (it
        is elementwise, so every entry is bit-identical to
        :func:`repro.models.chmm.soft_location_log_evidence`), the
        memoised candidate row where there is none."""
        pos = [obs.position_estimate for obs in obs_list]
        rows: List[Optional[np.ndarray]] = [
            self._candidate_loc_row(obs.subloc_candidates) if p is None else None
            for obs, p in zip(obs_list, pos)
        ]
        est = [i for i, p in enumerate(pos) if p is not None]
        if est:
            block = np.full((len(est), self._n_loc), -12.0)
            if self._center_idx.size:
                xy = np.array([pos[i] for i in est], dtype=float)
                block[:, self._center_idx] = -(
                    (xy[:, :1] - self._center_x) ** 2 + (xy[:, 1:] - self._center_y) ** 2
                ) / (2 * LOCATION_KERNEL_SIGMA_M**2)
            for i, row in zip(est, block):
                rows[i] = row
        return rows

    def _build_macro_rows(self, steps, obs_list) -> np.ndarray:
        """(R·n, M) per-macro evidence rows for the resident-major
        *obs_list* over *steps*: posture and gesture CPT rows gathered at
        once, the feature channel scored through the stacked GMM bank, and
        each step's object vector added to every resident's row.  Term
        order (posture, gesture, features, objects) matches the seed's
        loop."""
        rows = self._posture_rows[[self._posture_row_of.get(o.posture, -1) for o in obs_list]]
        if self._gesture_rows is not None:
            rows += self._gesture_rows[
                [self._gesture_row_of.get(o.gesture, -1) for o in obs_list]
            ]
        self._add_gmm_rows(rows, obs_list)
        obj_table = self.model._obj_evidence
        per_step = rows.reshape(-1, len(steps), self._n_macro)
        per_step += np.array([obj_table.macro_vector(s.objects_fired) for s in steps])
        return rows

    def _add_gmm_rows(self, rows: np.ndarray, obs_list) -> None:
        """Add the GMM feature channel to every row whose feature vector is
        non-empty and NaN-free, one bank reduction per feature dimension."""
        feats = [obs.features for obs in obs_list]
        dims = [len(x) for x in feats]
        for d in set(dims) - {0}:
            sel = np.array([i for i, n in enumerate(dims) if n == d])
            x_rows = np.array([feats[i] for i in sel], dtype=float)
            ok = ~np.isnan(x_rows).any(axis=1)
            rows[sel[ok]] += self.model._gmm_bank.log_pdf_rows(x_rows[ok], self._n_macro)

    # -- lookups ------------------------------------------------------------------

    def emissions(self, rid: str, t: int, m: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Candidate emission scores by indexing the precomputed rows."""
        out = (
            self._macro_rows[rid][t][m]
            + self._loc_rows[rid][t][l]
            + self.model._log_subloc_occ[m, l]
        )
        mask = self._pir_masks[t]
        if mask is not None:
            out[~mask[l]] += PIR_MISS_PENALTY
        return out

    def emission_rows(self, rid: str, t0: int, m: np.ndarray, l: np.ndarray) -> np.ndarray:
        """(S, K) :meth:`emissions` of the steps ``t0 .. t0 + S - 1`` for
        padded candidate rows ``m`` / ``l``, one stacked gather: each entry
        is the sum the one-step lookup takes, in its order, and the PIR
        penalty is added to the same entries."""
        t1 = t0 + m.shape[0]
        out = (
            np.take_along_axis(np.stack(self._macro_rows[rid][t0:t1]), m, axis=1)
            + np.take_along_axis(np.stack(self._loc_rows[rid][t0:t1]), l, axis=1)
            + self.model._log_subloc_occ[m, l]
        )
        masks = self._pir_masks[t0:t1]
        if any(mask is not None for mask in masks):
            fired = np.stack([np.ones(self._n_loc, dtype=bool) if k is None else k for k in masks])
            np.add(
                out, PIR_MISS_PENALTY, out=out,
                where=~np.take_along_axis(fired, l, axis=1),
            )
        return out

    def step_items(self, t: int) -> StepItems:
        """The step's precomputed ambient item sets."""
        return self._step_items[t]
