"""Object-sensor evidence for the HDBN family's emission model.

Every HDBN-family recogniser (NCR's frame-wise classifier, the coupled
N-chain HDBN) scores a hypothesised ``(macro, subloc)`` state against one
resident's step evidence in exactly the same way:

* observed postural / oral-gestural micro context via per-macro occupancy
  CPTs (the tier-1 wearable classifiers' outputs);
* the continuous feature vector via per-macro Gaussian mixtures whose
  components come from deterministic annealing (Augmentation 4);
* unattributed object-sensor evidence via per-macro Bernoulli CPTs;
* soft location evidence from the fused iBeacon / ambient candidate set,
  a per-step ``log P(subloc | macro)`` occupancy coupling, and a penalty
  for hypothesising a room whose PIR is silent while others fire.

Missing-modality robustness: any individual channel may be absent at a
given step (``posture=None``, ``gesture=None``, NaNs in the feature
vector) — the corresponding term is simply dropped, which is exact
marginalisation under the model's factorised emission.

The per-sequence tables of :class:`repro.core.kernels.SequenceKernel`
compute these scores; the seed's per-state loop and per-object loop are
``reference_user_state_emissions`` and ``object_log_evidence`` in
``tests/decode_spec.py``.  This module holds the object channel: a
precomputed per-macro "all sensors off" baseline corrected for the
objects that actually fired (:class:`ObjectEvidenceTable`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np


class ObjectEvidenceTable:
    """Precomputed per-macro object evidence.

    ``log P(step's object readings | macro)`` decomposes into a per-macro
    baseline (every instrumented object silent) plus, for each object that
    fired, the log-odds correction ``log P(fired) - log P(silent)``.  Both
    pieces are precomputed at fit time so a step costs one (M,)-vector add
    per distinct fired set; vectors are memoised per fired set because real
    traces re-fire the same few combinations (bounded like the other
    hot-path memos, against pathological streams).
    """

    _MEMO_LIMIT = 8192

    def __init__(self, object_index: Dict[str, int], log_table: np.ndarray) -> None:
        self.object_index = dict(object_index)
        self.log_table = log_table
        n_m = log_table.shape[0]
        if self.object_index:
            self.baseline = log_table[:, :, 0].sum(axis=1)
            self.delta = log_table[:, :, 1] - log_table[:, :, 0]
        else:
            # No instrumented objects seen in training: the channel is flat.
            self.baseline = np.zeros(n_m)
            self.delta = np.zeros((n_m, 0))
        self._memo: Dict[frozenset, np.ndarray] = {}

    def macro_vector(self, objects_fired: frozenset) -> np.ndarray:
        """(M,) log evidence of the fired-object set under every macro."""
        cached = self._memo.get(objects_fired)
        if cached is not None:
            return cached
        fired = [self.object_index[o] for o in objects_fired if o in self.object_index]
        if fired:
            out = self.baseline + self.delta[:, fired].sum(axis=1)
        else:
            out = self.baseline
        if len(self._memo) >= self._MEMO_LIMIT:
            self._memo.clear()
        self._memo[objects_fired] = out
        return out
