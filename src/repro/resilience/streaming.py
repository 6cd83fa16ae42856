"""Streaming-path resilience: step validation and degraded-mode serving.

The serving router guards a live smoother with two layers.
:func:`validate_step` rejects malformed :class:`ContextStep` objects
(wrong type, empty or mismatched observations, non-finite or
non-numeric features or positions) before they can poison a trellis.
When a session is quarantined — because a step failed validation or its
smoother raised — it keeps emitting labels through a
:class:`DegradedStepFilter`: the cheap fallback recogniser (e.g. a
:class:`~repro.models.hmm.MacroHmm`) decides each step on its own, and
if even that fails the filter falls back to the model's prior-argmax
macro label, which cannot fail.  Every commit
from this path is a :class:`DegradedLabels` dict, so downstream
consumers can tell full-model labels from degraded ones without any
shape change.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.api import DecodeStats, Recognizer
from repro.datasets.trace import ContextStep, LabeledSequence, ResidentObservation


class StepValidationError(ValueError):
    """An incoming step is malformed for its session."""


def validate_step(
    step: ContextStep, resident_ids: Optional[Tuple[str, ...]] = None
) -> None:
    """Raise :class:`StepValidationError` if *step* cannot be served.

    Checks the step type, that observations are present, that they cover
    exactly the session's residents (when known), that each is a
    :class:`ResidentObservation`, that every feature value is a finite
    number — NaN/inf features would silently corrupt every downstream
    Gaussian emission score — and that a position estimate, when present,
    is two finite coordinates.  A malformed value of any type raises
    :class:`StepValidationError`, never ``TypeError``.
    """
    if not isinstance(step, ContextStep):
        raise StepValidationError(
            f"expected a ContextStep, got {type(step).__name__}"
        )
    if not step.observations:
        raise StepValidationError("step has no resident observations")
    if resident_ids is not None and set(step.observations) != set(resident_ids):
        raise StepValidationError(
            f"step observes {sorted(step.observations)}, session expects "
            f"{sorted(resident_ids)}"
        )
    for rid, obs in step.observations.items():
        if not isinstance(obs, ResidentObservation):
            raise StepValidationError(
                f"observation for resident {rid!r} is a {type(obs).__name__}, "
                "not a ResidentObservation"
            )
        if not _all_finite(obs.features):
            raise StepValidationError(
                f"non-finite or non-numeric feature for resident {rid!r}"
            )
        pos = obs.position_estimate
        if pos is not None and not (_all_finite(pos) and len(pos) == 2):
            raise StepValidationError(
                f"position estimate for resident {rid!r} is not two finite floats"
            )


def _all_finite(values) -> bool:
    """True when *values* is a collection of finite numbers; False (never
    ``TypeError``) for a non-collection or a non-numeric entry."""
    try:
        return all(map(math.isfinite, values))
    except (TypeError, OverflowError):
        return False


class DegradedLabels(dict):
    """A committed-labels dict produced in degraded mode.

    Equal to (and substitutable for) a plain dict; the ``degraded``
    attribute is the tag — ``getattr(labels, "degraded", False)`` is
    False for every healthy commit.
    """

    degraded = True


def prior_macro_label(model: Recognizer) -> str:
    """The model's prior-argmax macro label — the last-resort emission.

    Works across every family: the HDBN models carry the mined
    constraint model's macro prior, the flat HMM its own ``prior_``.
    """
    cm = getattr(model, "constraint_model", None)
    if cm is not None and getattr(cm, "macro_prior", None) is not None:
        return cm.macro_index.label(int(np.argmax(cm.macro_prior)))
    prior = getattr(model, "prior_", None)
    index = getattr(model, "macro_index", None)
    if prior is not None and index is not None:
        return index.label(int(np.argmax(prior)))
    raise TypeError(
        f"{type(model).__name__} exposes no macro prior for degraded serving"
    )


class DegradedStepFilter:
    """Per-step labelling for a quarantined session.

    Each push decodes the single step with the *fallback* recogniser when
    one is configured (a length-1 sequence — cheap for a flat model, and
    stateless so one bad step never poisons the next), else emits the
    prior-argmax label.  Any fallback failure also drops to the prior
    label: this filter never raises from :meth:`push_step`.
    """

    def __init__(
        self,
        model: Recognizer,
        resident_ids: Tuple[str, ...],
        fallback: Optional[Recognizer] = None,
        step_s: float = 15.0,
    ) -> None:
        self.resident_ids = tuple(resident_ids)
        self.fallback = fallback
        self.step_s = step_s
        self.stats = DecodeStats()
        self._prior_label = prior_macro_label(fallback if fallback is not None else model)

    def push_step(self, step: ContextStep) -> DegradedLabels:
        """Labels for one step; never raises."""
        self.stats.steps += 1
        labels: Optional[Dict[str, str]] = None
        if self.fallback is not None:
            try:
                validate_step(step, self.resident_ids)
                seq = LabeledSequence(
                    home_id="degraded",
                    resident_ids=self.resident_ids,
                    step_s=self.step_s,
                    steps=[step],
                    truths=[{}],
                )
                decoded = self.fallback.decode(seq)
                labels = {rid: decoded[rid][0] for rid in self.resident_ids}
            except Exception:
                labels = None  # any fallback failure → prior-only below
        if labels is None:
            labels = {rid: self._prior_label for rid in self.resident_ids}
        return DegradedLabels(labels)
