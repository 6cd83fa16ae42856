"""Per-resident frame-wise classifier: the paper's **NCR** strategy.

NCR (§VII-G) is a two-fold method: prune each resident's candidate
``(macro, subloc)`` states with the single-user correlation rules, then
classify every frame on its own.  There is no temporal chain and no
inter-user coupling: a step's score is the HDBN's per-resident evidence
(shared with the coupled model through :mod:`repro.core.chdbn`) plus the
log macro-occupancy prior, so offline decoding is the frame-wise MAP and
the fixed-lag smoother reduces to filtering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.api import DecodeStats, TrellisPiece
from repro.core.chdbn import build_candidate_set, fit_emission_tables, init_user_evidence
from repro.core.kernels import SequenceKernel
from repro.core.state_space import StateSpaceBuilder
from repro.datasets.trace import Dataset, LabeledSequence
from repro.mining.constraint_miner import ConstraintModel
from repro.mining.correlation_miner import CorrelationRuleSet
from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_positive

_TINY = 1e-12


@dataclass
class SingleUserHdbn:
    """Rule-pruned frame-wise classifier over each resident's states."""

    constraint_model: ConstraintModel
    rule_set: Optional[CorrelationRuleSet] = None
    gmm_components: int = 4
    max_states_per_user: int = 36
    seed: RandomState = None
    builder: StateSpaceBuilder = field(default=None, init=False, repr=False)
    gmms_: Dict[int, object] = field(default_factory=dict, init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("max_states_per_user", self.max_states_per_user)
        self._rng = ensure_rng(self.seed)
        init_user_evidence(self)
        self._log_macro_occ = np.log(self.constraint_model.macro_occupancy + _TINY)

    # -- training (shares the coupled model's emission machinery) ----------------

    def fit(self, train: Dataset) -> "SingleUserHdbn":
        """Fit per-macro Gaussian mixtures via deterministic annealing."""
        fit_emission_tables(self, train)
        return self

    # -- inference ---------------------------------------------------------------------

    def decode(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> Dict[str, List[str]]:
        """The frame-wise MAP macro label of every resident at every step
        (work counted into *stats*)."""
        return kernels.decode(self, seq, "single_user", stats)

    def posterior_marginals(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> Dict[str, np.ndarray]:
        """Per-resident frame-wise posterior macro marginals ``(T, M)``
        under the macro-occupancy prior (work counted into *stats*)."""
        return kernels.posterior_marginals(self, seq, stats)

    # -- Recognizer surface --------------------------------------------------------

    def trellis_sessions(
        self, seq: LabeledSequence, stats: Optional[DecodeStats] = None
    ) -> List["_UserTrellis"]:
        """One independent session per resident (single-user pruning
        removes no joint states, so there is nothing to count into
        *stats*)."""
        return [_UserTrellis(self, seq, rid) for rid in seq.resident_ids]

    def describe(self) -> str:
        """One-line summary for logs and CLIs."""
        pruning = "rule-pruned" if self.rule_set is not None else "unpruned"
        return (
            f"per-user frame-wise classifier ({pruning}, "
            f"<= {self.max_states_per_user} states/user)"
        )


class _UserTrellis:
    """Trellis adapter over one resident's frames.

    A piece's ``enc`` is ``(m,)``, the candidates' macro codes.  No
    transition links the steps: each step's scores carry the
    macro-occupancy prior and stand alone.
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
        return TrellisPiece(scores=c.emissions + model._log_macro_occ[c.m], enc=(c.m,))

    def initial_alpha(self, piece: TrellisPiece) -> np.ndarray:
        return piece.scores

    def transition(self, prev: TrellisPiece, cur: TrellisPiece) -> None:
        return None

    def macros(self, piece: TrellisPiece) -> Tuple[np.ndarray]:
        return piece.enc
