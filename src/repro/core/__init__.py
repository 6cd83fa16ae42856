"""CACE core: the loosely-coupled Hierarchical Dynamic Bayesian Network.

The paper's contribution, assembled from the substrates:

* :class:`~repro.core.state_space.StateSpaceBuilder` — per-step candidate
  state creation from observations (pipeline step 3);
* :class:`~repro.core.loosely_coupled.NChainHdbn` — the coupled two-level
  model with end-of-sequence-marker semantics (Eqns 3-6, Augmentations
  1-4) over any number of resident chains (the paper's pairs are N=2),
  with vectorised joint Viterbi over pruned candidate trellises;
* :class:`~repro.core.hdbn.SingleUserHdbn` — the NCR strategy's per-user
  frame-wise classifier (rule-pruned candidates, no temporal chain);
* :mod:`~repro.core.pruning` — the four strategies of §VII-G
  (NH / NCR / NCS / C2);
* :class:`~repro.core.engine.CaceEngine` — the end-to-end pipeline of
  Fig 2, from labelled training data to decoded macro activities;
* :mod:`~repro.core.duration` — best-interval start/end duration error
  (Table V's metric).
"""

from repro.core.api import DecodeStats, Recognizer, TrellisPiece
from repro.core.duration import duration_error, extract_segments, match_segments
from repro.core.engine import CaceEngine
from repro.core.hdbn import SingleUserHdbn
from repro.core.loosely_coupled import NChainHdbn
from repro.core.pruning import PruningStrategy, STRATEGIES
from repro.core.smoother import OnlineSmoother
from repro.core.state_space import StateSpaceBuilder

__all__ = [
    "DecodeStats",
    "Recognizer",
    "TrellisPiece",
    "duration_error",
    "extract_segments",
    "match_segments",
    "CaceEngine",
    "SingleUserHdbn",
    "NChainHdbn",
    "OnlineSmoother",
    "PruningStrategy",
    "STRATEGIES",
    "StateSpaceBuilder",
]
