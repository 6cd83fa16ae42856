"""Online fixed-lag smoothing over any CACE recogniser.

The paper's conclusion argues "CACE model can be used as a smoother of any
online complex activity recognition framework": instead of decoding a full
recorded session offline (Viterbi), contexts arrive one step at a time and
each label must be committed within a bounded latency.

:class:`OnlineSmoother` runs the forward recursion of each of the model's
trellis sessions (:meth:`~repro.core.api.Recognizer.trellis_sessions`)
incrementally and commits the label for step ``t - lag`` when step ``t``
arrives, using a backward sweep restricted to the lag window (fixed-lag
smoothing).  The forward update, the backward sweep and the label read-out
are :mod:`repro.core.kernels`' own steps, so with ``lag >= len(seq)`` the
committed labels are exactly the argmax of the offline
:func:`~repro.core.kernels.posterior_marginals`; small lags trade a little
accuracy for bounded latency.  The coupled model exposes one joint
session; the per-user models one session per resident (frame-wise NCR
chains have no transition and reduce to filtering).

A live session holds O(lag) steps, not O(T).  Each trellis session keeps
its newest ``lag + 1`` pieces and normalised forward alphas and the
folded linear blocks (:func:`~repro.core.kernels.fold_block`) into the
newest ``lag`` of them: the commit of step ``t - lag`` reads the blocks
into steps ``t - lag + 1 … t`` only, so the block into the oldest kept
step is dropped.  :meth:`OnlineSmoother.flush` commits the whole window
on one backward pass.  Once a push has pieced step t, the trellis sessions
release their per-step evidence tables below ``t + 1``
(:meth:`~repro.core.api.TrellisSession.release`).  The window is trimmed
only after every session's step staged, so a failed push can still be
retried.

``push`` performs the same :class:`~repro.core.api.DecodeStats`
accounting as offline decoding (steps, surviving joint states, evaluated
transition entries, pruned/capped counts) into its own ``stats`` object,
which its trellis sessions are built over — so concurrent sessions over a
shared model never mix their counters, and streaming overhead reports
match the Fig 11 metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import DecodeStats, Recognizer, TrellisPiece, TrellisSession
from repro.core.kernels import (
    backward_step,
    fold_block,
    forward_step,
    macro_argmax,
    macro_marginals,
    normalised,
    posterior,
)
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry


class _Instruments:
    """Cached obs handles for one smoother (resolved once per session).

    Shared instrument objects aggregate across every smoother wired to the
    same registry (e.g. all of a router's sessions); per-session isolation
    stays in each smoother's own :class:`DecodeStats`.
    """

    __slots__ = (
        "push_seconds",
        "sweep_seconds",
        "steps",
        "commits",
        "trans_computed",
        "trans_reused",
    )

    def __init__(self, reg: MetricsRegistry) -> None:
        self.push_seconds = reg.histogram("smoother.push_seconds")
        self.sweep_seconds = reg.histogram("smoother.sweep_seconds")
        self.steps = reg.counter("smoother.steps")
        self.commits = reg.counter("smoother.commits")
        self.trans_computed = reg.counter("smoother.trans_blocks_computed")
        self.trans_reused = reg.counter("smoother.trans_blocks_reused")


@dataclass
class OnlineSmoother:
    """Fixed-lag smoother over a fitted recogniser.

    Parameters
    ----------
    model:
        Any fitted :class:`~repro.core.api.Recognizer` (its miners and
        emission tables are reused unchanged).
    lag:
        Commit latency in steps; 0 gives pure filtering (commit on arrival).
        A negative lag raises :class:`ValueError` at construction.
    """

    model: Recognizer
    lag: int = 4
    #: Metrics destination.  ``None`` uses the process-wide registry when
    #: observability is enabled (else no instrumentation at all); the
    #: serving router passes its own registry explicitly.
    metrics: Optional[MetricsRegistry] = None
    #: Per-session work accounting (the streaming analogue of the
    #: :class:`DecodeStats` an offline decode counts into).
    stats: DecodeStats = field(default_factory=DecodeStats, init=False)
    _ins: Optional[_Instruments] = field(default=None, init=False, repr=False)
    _sessions: Optional[List[TrellisSession]] = field(default=None, init=False, repr=False)
    _rids: Tuple[str, ...] = field(default=(), init=False)
    _pieces: List[List[TrellisPiece]] = field(default_factory=list, init=False, repr=False)
    _alphas: List[List[np.ndarray]] = field(default_factory=list, init=False, repr=False)
    #: The lag window: ``_pieces[k][i]``, ``_alphas[k][i]`` and
    #: ``_trans[k][i]`` belong to step ``_pushed - len(_pieces[k]) + i``,
    #: and each list holds at most ``lag + 1`` steps.  ``_alphas`` are
    #: normalised linear messages.  ``_trans`` holds the linear blocks,
    #: folded once at push time (:func:`~repro.core.kernels.fold_block`):
    #: ``_trans[k][i]`` is the transition block into that step from the one
    #: before it with that step's scores folded in (None at step 0, for
    #: frame-wise chains, and for the oldest kept step, whose block no
    #: sweep reads), so at most ``lag`` are held.  The lag-window backward
    #: sweeps reuse them instead of recomputing them on every commit.  The
    #: log block itself is not kept.
    _trans: List[List[Optional[np.ndarray]]] = field(
        default_factory=list, init=False, repr=False
    )
    _pushed: int = field(default=0, init=False)
    _committed: int = field(default=0, init=False)

    @property
    def window(self) -> int:
        """Steps the lag window holds: at most ``lag + 1``."""
        return len(self._pieces[0]) if self._pieces else 0

    @property
    def residents(self) -> Tuple[str, ...]:
        """Resident ids covered by the active session (empty before
        :meth:`start`)."""
        return self._rids

    def __post_init__(self) -> None:
        if self.lag < 0:
            raise ValueError(f"lag must be >= 0, got {self.lag}")

    def start(self, seq) -> None:
        """Begin a session; steps are then consumed with :meth:`push`."""
        self.stats = DecodeStats()
        sessions = self.model.trellis_sessions(seq, self.stats)
        self._sessions = sessions
        self._rids = tuple(rid for sess in sessions for rid in sess.rids)
        self._pieces = [[] for _ in sessions]
        self._alphas = [[] for _ in sessions]
        self._trans = [[] for _ in sessions]
        self._pushed = 0
        self._committed = 0
        reg = self.metrics if self.metrics is not None else obs.registry_if_enabled()
        self._ins = _Instruments(reg) if reg is not None else None

    # -- incremental consumption -------------------------------------------------

    def push(self, t: int) -> Optional[Dict[str, str]]:
        """Consume step *t*; returns the labels committed for step
        ``t - lag`` (None while the window is still filling)."""
        if self._sessions is None:
            raise RuntimeError("call start() before push()")
        if t != self._pushed:
            raise ValueError(
                f"steps must arrive in order; expected {self._pushed}, got {t}"
            )
        # Mirror the offline decode accounting so streaming overhead
        # reports are as meaningful as offline ones.
        stats = self.stats
        ins = self._ins
        t_push = time.perf_counter() if ins is not None else 0.0
        # Every session's piece, block and alpha is built before any is
        # stored: a step that raises leaves the window and the stats its
        # pieces counted into as they were, so the same step can be retried.
        before = vars(stats).copy()
        try:
            staged = [self._advance(k, sess, t) for k, sess in enumerate(self._sessions)]
        except BaseException:
            vars(stats).update(before)
            raise
        keep = self.lag + 1
        for k, (piece, block, alpha, entries) in enumerate(staged):
            pieces, trans, alphas = self._pieces[k], self._trans[k], self._alphas[k]
            pieces.append(piece)
            trans.append(block)
            alphas.append(alpha)
            if len(pieces) > keep:
                del pieces[0], trans[0], alphas[0]
                trans[0] = None
            self._sessions[k].release(t + 1)
            stats.joint_states += len(piece)
            stats.transition_entries += entries
            if ins is not None and block is not None:
                ins.trans_computed.inc()
        stats.steps += 1
        self._pushed = t + 1

        commit_t = t - self.lag
        if commit_t < 0:
            if ins is not None:
                ins.steps.inc()
                ins.push_seconds.observe(time.perf_counter() - t_push)
            return None
        (labels,) = self._smooth(commit_t, commit_t + 1)
        self._committed = commit_t + 1
        if ins is not None:
            ins.steps.inc()
            ins.push_seconds.observe(time.perf_counter() - t_push)
        return labels

    def _advance(
        self, k: int, sess: TrellisSession, t: int
    ) -> Tuple[TrellisPiece, Optional[np.ndarray], np.ndarray, int]:
        """Session *k*'s step-*t* piece, folded block into it, forward
        alpha and evaluated transition entries (nothing is stored)."""
        piece = sess.piece(t)
        if t == 0:
            return piece, None, normalised(sess.initial_alpha(piece)), 0
        log_t = sess.transition(self._pieces[k][-1], piece)
        block = fold_block(log_t, piece.scores)
        alpha = forward_step(self._alphas[k][-1], block, piece.scores)
        return piece, block, alpha, 0 if log_t is None else log_t.size

    def prepare_range(self, t0: int, t1: int) -> None:
        """Batch-build per-sequence evidence tables for steps ``[t0, t1)``
        ahead of their :meth:`push` calls — the smoother's one bulk idiom
        (the serving router calls it once per run of valid steps).  It is
        an optimisation only: ``push`` is correct without it.
        """
        if self._sessions is None:
            raise RuntimeError("call start() before prepare_range()")
        for sess in self._sessions:
            sess.prepare(t0, t1)

    def flush(self) -> List[Dict[str, str]]:
        """Commit every step still inside the lag window (session end), on
        one backward pass: every commit has the newest step as horizon."""
        if self._sessions is None or self._committed == self._pushed:
            return []
        out = self._smooth(self._committed, self._pushed)
        self._committed = self._pushed
        return out

    def run(self, seq) -> Dict[str, List[str]]:
        """Convenience: stream a whole session, return per-resident labels."""
        self.start(seq)
        per_step: List[Dict[str, str]] = []
        for t in range(len(seq)):
            committed = self.push(t)
            if committed is not None:
                per_step.append(committed)
        per_step.extend(self.flush())
        return {
            rid: [labels[rid] for labels in per_step] for rid in self._rids
        }

    # -- lag-window smoothing ------------------------------------------------------

    def _smooth(self, t0: int, t1: int) -> List[Dict[str, str]]:
        """Argmax smoothed macro per resident for each step ``t0 .. t1 - 1``
        given every pushed step, on one backward pass down the lag window.

        The pass reuses the blocks folded at push time (``_trans``); every
        reuse counts as a cache hit against the push-time computations
        (``smoother.trans_blocks_computed``)."""
        ins = self._ins
        t_sweep = time.perf_counter() if ins is not None else 0.0
        reused = 0
        out: List[Dict[str, str]] = [{} for _ in range(t0, t1)]
        with obs.span("smoother.backward", commit_t=t0, horizon=self._pushed - 1):
            for k, sess in enumerate(self._sessions):
                pieces, trans, alphas = self._pieces[k], self._trans[k], self._alphas[k]
                # Window positions of t0 and t1.
                lo = t0 - (self._pushed - len(pieces))
                hi = lo + t1 - t0
                index = sess.macro_index
                beta = np.ones(len(pieces[-1]))
                for i in range(len(pieces) - 1, lo - 1, -1):
                    if i < hi:
                        gamma = posterior(alphas[i], beta)
                        labels = out[i - lo]
                        for rid, marg in macro_marginals(sess, pieces[i], gamma).items():
                            labels[rid] = index.label(macro_argmax(marg))
                    if i > lo:
                        reused += trans[i] is not None
                        beta = backward_step(beta, trans[i], len(pieces[i - 1]))
        if ins is not None:
            ins.commits.inc(t1 - t0)
            if reused:
                ins.trans_reused.inc(reused)
            ins.sweep_seconds.observe(time.perf_counter() - t_sweep)
        return out
