"""The model-layer contract every CACE recogniser implements.

The three model families (:class:`~repro.core.hdbn.SingleUserHdbn`,
:class:`~repro.core.loosely_coupled.NChainHdbn` — the coupled HDBN for
two or more residents — and :class:`~repro.models.hmm.MacroHmm`) expose
one shared surface — :class:`Recognizer` — so the engine, the serving
layer, and the CLI can treat them interchangeably instead of dispatching
on concrete types:

* ``decode`` / ``posterior_marginals`` — offline inference, counting
  its work into the :class:`DecodeStats` the caller passes;
* ``trellis_sessions`` — the per-chain trellis adapters that both the
  offline driver (:func:`repro.core.kernels.decode`) and the generic
  fixed-lag :class:`~repro.core.smoother.OnlineSmoother` run on (stream
  any recogniser with ``OnlineSmoother(model, lag=...)``);
* ``describe`` — a one-line human-readable summary for logs and CLIs.

A recogniser's trellis decomposes into one or more *sessions* (independent
chains): the coupled model exposes a single joint session, the flat HMM
and NCR's frame-wise classifier one session per resident.  Each session yields per-step
:class:`TrellisPiece` objects and the transition blocks between
consecutive pieces; the Viterbi and forward/backward recursions are
written once against that interface.  Sessions count the work only they
see (rule-pruned and capped joint states) into the :class:`DecodeStats`
they were built with.  A fitted model holds no per-call state, so
concurrent decodes and sessions over one shared model never touch each
other's counters.

This module sits below the rest of :mod:`repro.core` (it imports none of
it), so every model family can depend on it without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.datasets.trace import Dataset, LabeledSequence

if TYPE_CHECKING:
    from repro.models.distributions import LabelIndex


@dataclass
class DecodeStats:
    """Work accounting for one decoded sequence (overhead metrics).

    Field semantics (the paper's Fig 11 overhead metric is derived from
    these, so they count *actual* work, never hypothetical work):

    ``steps``
        Time steps whose candidate trellis was built — counted once per
        step in both the offline (:func:`repro.core.kernels.decode`) and
        streaming (:meth:`~repro.core.smoother.OnlineSmoother.push`)
        paths.
    ``joint_states``
        Total surviving joint candidates summed over steps and chains
        (after rule pruning *and* the score cap) — what the trellis
        actually holds.
    ``transition_entries``
        Total entries of the evaluated transition blocks — one
        ``(prev x cur)`` block per step per chain in the forward pass.
        The joint model builds each resident chain's term on its own
        candidate list and gathers it onto the joint axis; this still
        counts the ``P x C`` entries of the gathered joint block, so the
        Fig 11 overhead metric does not depend on how a block is built.
    ``pruned_joint_states``
        Joint candidates actually *removed* by correlation pruning.  When
        every pair fails the rules the pruner keeps them all (never empty
        the trellis), and that step contributes zero here.
    ``capped_joint_states``
        Joint candidates dropped by the best-K emission-score cap
        (``max_joint_states`` / ``max_joint_states_pruned``), accounted
        separately from rule pruning.
    """

    steps: int = 0
    joint_states: int = 0
    transition_entries: int = 0
    pruned_joint_states: int = 0
    capped_joint_states: int = 0

    @property
    def mean_joint_states(self) -> float:
        """Average joint-candidate count per step."""
        return self.joint_states / max(self.steps, 1)

    def merge(self, other: "DecodeStats") -> "DecodeStats":
        """Accumulate *other* into this instance (batched decoding)."""
        self.steps += other.steps
        self.joint_states += other.joint_states
        self.transition_entries += other.transition_entries
        self.pruned_joint_states += other.pruned_joint_states
        self.capped_joint_states += other.capped_joint_states
        return self


@dataclass
class TrellisPiece:
    """One step of one trellis session.

    ``scores`` are the per-candidate log evidence terms added after the
    transition in the forward recursion; ``enc`` is the session's own
    dense encoding of the candidates (opaque to the recursions, consumed
    by :meth:`TrellisSession.transition` / :meth:`TrellisSession.macros`).
    A frame-wise (NCR) session stores ``(m,)``, the candidates' macro codes
    (its steps have no transition); the joint N-chain session stores
    ``(grids, m, l)``: per-user candidate indices as ``(N, J)`` rows plus
    each user's own macro and sub-location code arrays.
    """

    scores: np.ndarray
    enc: object = None

    def __len__(self) -> int:
        return int(self.scores.shape[0])


class TrellisSession(Protocol):
    """One independent chain of a recogniser's trellis.

    The offline driver (:mod:`repro.core.kernels`) and the generic
    :class:`~repro.core.smoother.OnlineSmoother` drive their recursions
    entirely through this interface; implementations own the
    model-specific candidate building, encodings, and transition blocks,
    and count the joint states their pruning removes into the
    :class:`DecodeStats` they were built with.
    """

    #: Residents this session labels (a commit dict merges all sessions).
    rids: Tuple[str, ...]
    #: Label space of the macro codes :meth:`macros` returns.
    macro_index: "LabelIndex"

    def prepare(self, t0: int, t1: int) -> None:
        """Batch-build evidence for steps ``[t0, t1)`` ahead of the
        per-step :meth:`piece` calls (an optimisation only)."""
        ...

    def piece(self, t: int) -> TrellisPiece:
        """Build step *t*'s candidates and evidence scores."""
        ...

    def release(self, t: int) -> None:
        """Drop the per-step tables of every step below *t*: no later
        :meth:`piece` call reads them (the smoother calls it once a push
        has pieced step ``t - 1``)."""
        ...

    def initial_alpha(self, piece: TrellisPiece) -> np.ndarray:
        """``log prior + scores`` over the first piece's candidates."""
        ...

    def transition(self, prev: TrellisPiece, cur: TrellisPiece) -> Optional[np.ndarray]:
        """``(|prev|, |cur|)`` log transition block, or ``None`` when the
        chain has no temporal coupling (frame-wise models, whose scores
        then carry the prior and stand alone)."""
        ...

    def macros(self, piece: TrellisPiece) -> Sequence[np.ndarray]:
        """Per resident (in ``rids`` order), the macro code of each of
        the piece's candidates."""
        ...


@runtime_checkable
class Recognizer(Protocol):
    """What every CACE model family exposes to the engine and servers."""

    def fit(self, train: Dataset) -> "Recognizer":
        """Estimate parameters from a labelled training set."""
        ...

    def decode(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> Dict[str, List[str]]:
        """MAP macro labels per resident, counting the work into *stats*."""
        ...

    def posterior_marginals(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> Dict[str, np.ndarray]:
        """Per-resident posterior macro marginals ``(T, M)``, counting the
        work into *stats*."""
        ...

    def trellis_sessions(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> List[TrellisSession]:
        """Independent-chain adapters counting into *stats* (a fresh
        :class:`DecodeStats` when omitted)."""
        ...

    def describe(self) -> str:
        """One-line summary (family, coupling, pruning configuration)."""
        ...

