"""Probabilistic models: shared distributions and the baseline recognisers.

Contains the building blocks (label indexing, conditional probability
tables, Gaussian emissions) and the three prior-work baselines the paper
compares against.  Every baseline decodes with the same Viterbi recursion
as CACE, :func:`repro.core.kernels.viterbi_path`:

* :class:`~repro.models.hmm.MacroHmm` — per-user flat HMM (Singla et al.
  [9]): no hierarchy, no coupling.
* :class:`~repro.models.chmm.CoupledHmm` — CHMM (Roy et al. [4]): coupled
  macro transitions, ambient + postural context, no hierarchy.
* :class:`~repro.models.fcrf.FactorialCrf` — FCRF (Wang et al. [5]):
  discriminative factorial chain over wearable features.
"""

from repro.models.chmm import CoupledHmm
from repro.models.distributions import (
    Cpt,
    GaussianEmission,
    LabelIndex,
    normalize,
)
from repro.models.fcrf import FactorialCrf
from repro.models.hmm import MacroHmm

__all__ = [
    "CoupledHmm",
    "Cpt",
    "GaussianEmission",
    "LabelIndex",
    "normalize",
    "FactorialCrf",
    "MacroHmm",
]
