"""State-space creation: per-step candidate hidden states (Fig 2, step 3).

A user's hidden state is ``(macro, subloc)`` — postural and oral-gestural
micro context are *observable* (inferred by the tier-1 classifiers) while
location and macro activity are hidden (paper §IV-A).  For each time step
the builder combines micro-level evidence into a compact candidate list:
sub-locations from the fused iBeacon/PIR candidate set, macro activities
whose mined location prior puts non-trivial mass on those candidates.

The correlation rules then *reduce* this space (step 4) through the
pruners of :mod:`repro.core.rule_kernel`, which read the same codes.

Hot-path support: candidate lists depend only on the fused sub-location
candidate set, so the builder memoises them per candidate tuple as dense
``(macro, subloc)`` index arrays.  Downstream code (emissions, pruning,
trellis assembly) indexes those arrays; no label string is built.  A
range of steps is built as one :class:`StackedCandidates`, every step's
lists padded onto a leading step axis.  The
labelled states and item sets of the seed live in ``tests/decode_spec.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.trace import ResidentObservation
from repro.mining.constraint_miner import ConstraintModel
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


@dataclass
class CandidateSet:
    """One resident's per-step candidates.

    ``m`` / ``l`` are the candidates' dense macro / sub-location indices
    in the constraint model's label spaces, so the decode hot path never
    performs per-pair label lookups.  ``emissions`` is the per-candidate
    log emission score.
    """

    m: np.ndarray
    l: np.ndarray
    emissions: np.ndarray
    obs: ResidentObservation

    def __len__(self) -> int:
        return len(self.m)


@dataclass
class StackedCandidates:
    """One resident's candidates over a range of steps, stacked on a
    leading step axis.

    Row ``s`` holds step ``t0 + s``: its first ``n[s]`` entries of ``m``,
    ``l`` and ``emissions`` are that step's :class:`CandidateSet`, in the
    same order; the rest is padding (code 0, a score nobody reads) up to
    the range's longest list.  ``len`` counts the real candidates of every
    step.
    """

    m: np.ndarray
    l: np.ndarray
    emissions: np.ndarray
    n: np.ndarray
    obs: List[ResidentObservation]

    def __len__(self) -> int:
        return int(self.n.sum())

    def valid(self) -> np.ndarray:
        """(S, K) mask of the real entries."""
        return np.arange(self.m.shape[1]) < self.n[:, None]

    def rows(self, a: int, b: int) -> "StackedCandidates":
        """Steps ``a..b-1`` of the stack, padded to their own longest list."""
        n = self.n[a:b]
        k = int(n.max())
        return StackedCandidates(
            self.m[a:b, :k], self.l[a:b, :k], self.emissions[a:b, :k], n, self.obs[a:b]
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
    #: Memo of candidate codes keyed by the fused sub-location candidate
    #: tuple (the only observation field the builder reads).
    _cand_cache: Dict[Tuple[str, ...], Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        cm = self.constraint_model
        #: Enclosing-room label per dense sub-location index (object dtype so
        #: fancy-indexed slices compare against room strings directly).
        self.room_of_l = np.array(
            [_ROOM_OF.get(lbl, "unknown") for lbl in cm.subloc_index.labels], dtype=object
        )

    def candidate_codes(self, obs: ResidentObservation) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ``(macro_idx, subloc_idx)`` arrays for one resident at
        one step.

        Sub-locations come from the fused candidate set; macro hypotheses
        are scored by their occupancy mass on those candidates.  Every macro
        always contributes at least one state — its best candidate
        sub-location, or its global modal sub-location when the candidate
        set carries no mass (a PIR can miss a stationary resident, and the
        emission's PIR-miss penalty is the right place to adjudicate that,
        not a hard candidate cut that caps attainable accuracy).

        Candidate creation depends only on ``obs.subloc_candidates``, so the
        result is memoised per candidate tuple.  Callers must treat the
        returned arrays as immutable.
        """
        key = obs.subloc_candidates
        hit = self._cand_cache.get(key)
        if hit is not None:
            return hit
        cm = self.constraint_model
        occupancy = cm.subloc_occupancy
        cand_idx = [cm.subloc_index.index(sr) for sr in key if sr in cm.subloc_index]
        if not cand_idx:
            cand_idx = list(range(len(cm.subloc_index)))

        scored: List[Tuple[float, Tuple[int, int]]] = []
        guaranteed: List[Tuple[int, int]] = []
        for m_i in range(cm.n_macro):
            mass = float(occupancy[m_i, cand_idx].sum())
            if mass < MACRO_MASS_THRESHOLD:
                # Outside its usual locations: keep one fallback hypothesis
                # at the macro's modal sub-location.
                guaranteed.append((m_i, int(np.argmax(occupancy[m_i]))))
                continue
            best_l = cand_idx[int(np.argmax(occupancy[m_i, cand_idx]))]
            guaranteed.append((m_i, best_l))
            for l_i in cand_idx:
                p = float(occupancy[m_i, l_i])
                if p < MIN_SUBLOC_PRIOR or l_i == best_l:
                    continue
                scored.append((mass * p, (m_i, l_i)))
        scored.sort(key=lambda pair: -pair[0])
        budget = max(self.max_states_per_user - len(guaranteed), 0)
        codes = guaranteed + [code for _, code in scored[:budget]]
        # (m, l): the rows of a C-contiguous (2, n) copy, each contiguous.
        hit = tuple(np.array(codes, dtype=int).T.copy())
        if len(self._cand_cache) >= _CAND_CACHE_LIMIT:
            self._cand_cache.clear()
        self._cand_cache[key] = hit
        return hit
