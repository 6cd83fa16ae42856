"""State-space creation: per-step candidate hidden states (Fig 2, step 3).

A user's hidden state is ``(macro, subloc)`` — postural and oral-gestural
micro context are *observable* (inferred by the tier-1 classifiers) while
location and macro activity are hidden (paper §IV-A).  For each time step
the builder combines micro-level evidence into a compact candidate list:
sub-locations from the fused iBeacon/PIR candidate set, macro activities
whose mined location prior puts non-trivial mass on those candidates.

The correlation miners then *reduce* this space (step 4); the builder also
exposes the item-set encoding that rule checking consumes.

Hot-path support: candidate lists depend only on the fused sub-location
candidate set, so the builder memoises them per candidate tuple together
with their dense ``(macro, subloc)`` index encodings.  Downstream code
(emissions, pruning, trellis assembly) indexes those arrays instead of
re-resolving labels through ``LabelIndex`` per joint pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

import numpy as np

from repro.datasets.trace import ContextStep, ResidentObservation
from repro.mining.constraint_miner import ConstraintModel
from repro.mining.context_rules import Item, ambient_items, state_items
from repro.home.layout import SUB_REGIONS

_ROOM_OF = {sr.sr_id: sr.room for sr in SUB_REGIONS}

#: Minimum occupancy mass a macro must put on the candidate sub-locations
#: to be hypothesised there (the probabilistic "state space creation"
#: filter); below it the macro keeps one fallback state.
MACRO_MASS_THRESHOLD = 0.02
#: Minimum occupancy of a sub-location for a macro's extra hypotheses there.
MIN_SUBLOC_PRIOR = 0.01
#: Safety bound on the builder's candidate memo — candidate tuples are drawn
#: from a small fused vocabulary, but a pathological stream must not grow it
#: forever.
_CAND_CACHE_LIMIT = 8192


class UserState(NamedTuple):
    """One hidden-state hypothesis for one resident."""

    macro: str
    subloc: str


@dataclass
class CandidateSet:
    """One resident's per-step candidates with precomputed encodings.

    ``m`` / ``l`` are the dense macro / sub-location indices of ``states``
    in the constraint model's label spaces, resolved once at candidate
    build time so the decode hot path never performs per-pair label
    lookups.  ``emissions`` is the per-state log emission score.
    """

    states: List[UserState]
    m: np.ndarray
    l: np.ndarray
    emissions: np.ndarray
    obs: ResidentObservation

    def __len__(self) -> int:
        return len(self.states)

    def take(self, idx: np.ndarray) -> "CandidateSet":
        """Sub-select candidates (keeps all fields aligned)."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return CandidateSet(
            states=[self.states[i] for i in idx],
            m=self.m[idx],
            l=self.l[idx],
            emissions=self.emissions[idx],
            obs=self.obs,
        )


@dataclass
class StateSpaceBuilder:
    """Builds per-step candidate states from observations.

    Parameters
    ----------
    constraint_model:
        Mined statistics; its per-macro sub-location occupancy decides which
        macro activities are compatible with a candidate location set
        (above :data:`MACRO_MASS_THRESHOLD`).
    max_states_per_user:
        Hard cap on per-user candidates (best-scoring kept).
    """

    constraint_model: ConstraintModel
    max_states_per_user: int = 60
    #: Memo of encoded candidate lists keyed by the fused sub-location
    #: candidate tuple (the only observation field the builder reads).
    _cand_cache: Dict[Tuple[str, ...], Tuple[List[UserState], np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        cm = self.constraint_model
        #: Enclosing-room label per dense sub-location index (object dtype so
        #: fancy-indexed slices compare against room strings directly).
        self.room_of_l = np.array(
            [_ROOM_OF.get(lbl, "unknown") for lbl in cm.subloc_index.labels], dtype=object
        )

    def candidate_states_encoded(
        self, obs: ResidentObservation
    ) -> Tuple[List[UserState], np.ndarray, np.ndarray]:
        """Memoised ``(states, macro_idx, subloc_idx)`` for one observation.

        Candidate creation depends only on ``obs.subloc_candidates``, so the
        result — including the dense index encodings the trellis needs — is
        cached per candidate tuple.  Callers must treat the returned list
        and arrays as immutable.
        """
        key = obs.subloc_candidates
        hit = self._cand_cache.get(key)
        if hit is None:
            cm = self.constraint_model
            states = self.candidate_states(obs)
            m = np.array([cm.macro_index.index(s.macro) for s in states], dtype=int)
            l = np.array([cm.subloc_index.index(s.subloc) for s in states], dtype=int)
            if len(self._cand_cache) >= _CAND_CACHE_LIMIT:
                self._cand_cache.clear()
            hit = (states, m, l)
            self._cand_cache[key] = hit
        return hit

    def candidate_states(self, obs: ResidentObservation) -> List[UserState]:
        """Candidate ``(macro, subloc)`` states for one resident at one step.

        Sub-locations come from the fused candidate set; macro hypotheses
        are scored by their occupancy mass on those candidates.  Every macro
        always contributes at least one state — its best candidate
        sub-location, or its global modal sub-location when the candidate
        set carries no mass (a PIR can miss a stationary resident, and the
        emission's PIR-miss penalty is the right place to adjudicate that,
        not a hard candidate cut that caps attainable accuracy).
        """
        cm = self.constraint_model
        occupancy = cm.subloc_occupancy
        cand_idx = [
            cm.subloc_index.index(sr) for sr in obs.subloc_candidates if sr in cm.subloc_index
        ]
        if not cand_idx:
            cand_idx = list(range(len(cm.subloc_index)))

        scored: List[Tuple[float, UserState]] = []
        guaranteed: List[UserState] = []
        seen: set = set()
        for m_i, macro in enumerate(cm.macro_index.labels):
            mass = float(occupancy[m_i, cand_idx].sum())
            best_l = cand_idx[int(np.argmax(occupancy[m_i, cand_idx]))]
            if mass < MACRO_MASS_THRESHOLD:
                # Outside its usual locations: keep one fallback hypothesis
                # at the macro's modal sub-location.
                l_i = int(np.argmax(occupancy[m_i]))
                guaranteed.append(UserState(macro, cm.subloc_index.label(l_i)))
                seen.add((m_i, l_i))
                continue
            guaranteed.append(UserState(macro, cm.subloc_index.label(best_l)))
            seen.add((m_i, best_l))
            for l_i in cand_idx:
                p = float(occupancy[m_i, l_i])
                if p < MIN_SUBLOC_PRIOR or (m_i, l_i) in seen:
                    continue
                scored.append((mass * p, UserState(macro, cm.subloc_index.label(l_i))))
        scored.sort(key=lambda pair: -pair[0])
        budget = max(self.max_states_per_user - len(guaranteed), 0)
        return guaranteed + [state for _, state in scored[:budget]]

    # -- item encoding for rule checks ----------------------------------------

    @staticmethod
    def state_item_set(
        slot: str, state: UserState, obs: ResidentObservation
    ) -> FrozenSet[Item]:
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

    @staticmethod
    def ambient_item_set(step: ContextStep) -> FrozenSet[Item]:
        """Items for the step's unattributed ambient evidence."""
        return frozenset(ambient_items(sorted(step.rooms_fired), sorted(step.objects_fired)))
