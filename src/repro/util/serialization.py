"""JSON (de)serialisation for mined rules, labelled datasets, and the
model-artifact building blocks.

Rule sets are the system's distilled behavioural knowledge — the paper's
Base application even lets users *seed* them from a phone UI — so they
need a stable on-disk form that survives across sessions and homes.
Datasets round-trip too, which makes experiment corpora reproducible
artefacts rather than in-memory accidents.  The ndarray / constraint-model
helpers here are what :mod:`repro.util.artifacts` assembles into versioned
fitted-model artifacts.

Everything is plain JSON: no pickle, no custom binary, diff-able in code
review.  Schema versions are embedded so future format changes can be
detected instead of silently mis-read.  Floats survive bit-exactly —
``json`` emits Python's shortest ``repr`` and reads it back to the same
IEEE-754 double — which is what makes reloaded models decode
bit-identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.datasets.trace import (
    ContextStep,
    Dataset,
    LabeledSequence,
    ResidentObservation,
    ResidentTruth,
)
from repro.mining.constraint_miner import ConstraintModel
from repro.mining.context_rules import Item
from repro.mining.correlation_miner import CorrelationRuleSet
from repro.mining.rules import AssociationRule, ExclusionRule
from repro.models.distributions import LabelIndex

_RULES_SCHEMA = "repro.rules/1"
_DATASET_SCHEMA = "repro.dataset/1"


# ---------------------------------------------------------------------------
# rule sets
# ---------------------------------------------------------------------------


def _item_to_obj(item: Item) -> List[str]:
    return [item.slot, item.time, item.attr, item.value]


def _item_from_obj(obj: List[str]) -> Item:
    return Item(*obj)


def rule_set_to_dict(rule_set: CorrelationRuleSet) -> Dict:
    """Plain-dict form of a rule set (stable field order)."""
    return {
        "schema": _RULES_SCHEMA,
        "forcing_rules": [
            {
                "antecedent": sorted(_item_to_obj(i) for i in rule.antecedent),
                "consequent": _item_to_obj(rule.consequent),
                "support": rule.support,
                "confidence": rule.confidence,
            }
            for rule in rule_set.forcing_rules
        ],
        "exclusions": [
            {
                "a": _item_to_obj(excl.a),
                "b": _item_to_obj(excl.b),
                "support_a": excl.support_a,
                "support_b": excl.support_b,
            }
            for excl in rule_set.exclusions
        ],
    }


def rule_set_from_dict(data: Dict) -> CorrelationRuleSet:
    """Inverse of :func:`rule_set_to_dict`."""
    schema = data.get("schema")
    if schema != _RULES_SCHEMA:
        raise ValueError(f"unsupported rule-set schema {schema!r} (want {_RULES_SCHEMA})")
    forcing = [
        AssociationRule(
            antecedent=frozenset(_item_from_obj(i) for i in rule["antecedent"]),
            consequent=_item_from_obj(rule["consequent"]),
            support=float(rule["support"]),
            confidence=float(rule["confidence"]),
        )
        for rule in data["forcing_rules"]
    ]
    # Older files also stored behavioural exclusions as ``"hard": false``;
    # nothing ever pruned on them, so they are dropped.
    exclusions = [
        ExclusionRule(
            a=_item_from_obj(excl["a"]),
            b=_item_from_obj(excl["b"]),
            support_a=float(excl["support_a"]),
            support_b=float(excl["support_b"]),
        )
        for excl in data["exclusions"]
        if excl.get("hard", True)
    ]
    return CorrelationRuleSet(forcing_rules=forcing, exclusions=exclusions)


def save_rule_set(rule_set: CorrelationRuleSet, path: Union[str, Path]) -> None:
    """Write a rule set as JSON."""
    Path(path).write_text(json.dumps(rule_set_to_dict(rule_set), indent=2))


def load_rule_set(path: Union[str, Path]) -> CorrelationRuleSet:
    """Read a rule set written by :func:`save_rule_set`."""
    return rule_set_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


def _observation_to_obj(obs: ResidentObservation) -> Dict:
    return {
        "posture": obs.posture,
        "gesture": obs.gesture,
        "features": list(obs.features),
        "subloc_candidates": list(obs.subloc_candidates),
        "position_estimate": list(obs.position_estimate)
        if obs.position_estimate is not None
        else None,
    }


def _observation_from_obj(obj: Dict) -> ResidentObservation:
    estimate = obj.get("position_estimate")
    return ResidentObservation(
        posture=obj["posture"],
        gesture=obj["gesture"],
        features=tuple(float(v) for v in obj["features"]),
        subloc_candidates=tuple(obj["subloc_candidates"]),
        position_estimate=tuple(estimate) if estimate is not None else None,
    )


def _sequence_to_obj(seq: LabeledSequence) -> Dict:
    return {
        "home_id": seq.home_id,
        "resident_ids": list(seq.resident_ids),
        "step_s": seq.step_s,
        "steps": [
            {
                "t": step.t,
                "observations": {
                    rid: _observation_to_obj(obs)
                    for rid, obs in step.observations.items()
                },
                "rooms_fired": sorted(step.rooms_fired),
                "objects_fired": sorted(step.objects_fired),
                "sublocs_fired": sorted(step.sublocs_fired),
            }
            for step in seq.steps
        ],
        "truths": [
            {
                rid: [t.macro, t.posture, t.gesture, t.subloc, t.room]
                for rid, t in truth.items()
            }
            for truth in seq.truths
        ],
    }


def _sequence_from_obj(obj: Dict) -> LabeledSequence:
    steps = [
        ContextStep(
            t=float(step["t"]),
            observations={
                rid: _observation_from_obj(o) for rid, o in step["observations"].items()
            },
            rooms_fired=frozenset(step["rooms_fired"]),
            objects_fired=frozenset(step["objects_fired"]),
            sublocs_fired=frozenset(step.get("sublocs_fired", [])),
        )
        for step in obj["steps"]
    ]
    truths = [
        {rid: ResidentTruth(*vals) for rid, vals in truth.items()}
        for truth in obj["truths"]
    ]
    return LabeledSequence(
        home_id=obj["home_id"],
        resident_ids=tuple(obj["resident_ids"]),
        step_s=float(obj["step_s"]),
        steps=steps,
        truths=truths,
    )


def dataset_to_dict(dataset: Dataset) -> Dict:
    """Plain-dict form of a dataset."""
    return {
        "schema": _DATASET_SCHEMA,
        "name": dataset.name,
        "macro_vocab": list(dataset.macro_vocab),
        "postural_vocab": list(dataset.postural_vocab),
        "gestural_vocab": list(dataset.gestural_vocab),
        "subloc_vocab": list(dataset.subloc_vocab),
        "has_gestural": dataset.has_gestural,
        "metadata": dataset.metadata,
        "sequences": [_sequence_to_obj(seq) for seq in dataset.sequences],
    }


def dataset_from_dict(data: Dict) -> Dataset:
    """Inverse of :func:`dataset_to_dict`."""
    schema = data.get("schema")
    if schema != _DATASET_SCHEMA:
        raise ValueError(f"unsupported dataset schema {schema!r} (want {_DATASET_SCHEMA})")
    return Dataset(
        name=data["name"],
        sequences=[_sequence_from_obj(obj) for obj in data["sequences"]],
        macro_vocab=tuple(data["macro_vocab"]),
        postural_vocab=tuple(data["postural_vocab"]),
        gestural_vocab=tuple(data["gestural_vocab"]),
        subloc_vocab=tuple(data["subloc_vocab"]),
        has_gestural=bool(data["has_gestural"]),
        metadata=dict(data.get("metadata", {})),
    )


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write a dataset as JSON."""
    Path(path).write_text(json.dumps(dataset_to_dict(dataset)))


def load_dataset(path: Union[str, Path]) -> Dataset:
    """Read a dataset written by :func:`save_dataset`."""
    return dataset_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# model-artifact building blocks (ndarrays, label indices, constraint models)
# ---------------------------------------------------------------------------


def array_to_obj(arr: Optional[np.ndarray]) -> Optional[Dict]:
    """Plain-dict form of an ndarray (dtype + shape + flat data)."""
    if arr is None:
        return None
    arr = np.asarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": arr.ravel().tolist(),
    }


def array_from_obj(obj: Optional[Dict]) -> Optional[np.ndarray]:
    """Inverse of :func:`array_to_obj` (bit-exact for float64/int64)."""
    if obj is None:
        return None
    return np.array(obj["data"], dtype=obj["dtype"]).reshape(obj["shape"])


def _label_index_to_obj(index: Optional[LabelIndex]) -> Optional[List[str]]:
    return list(index.labels) if index is not None else None


def _label_index_from_obj(obj: Optional[List[str]]) -> Optional[LabelIndex]:
    return LabelIndex(tuple(obj)) if obj is not None else None


#: ConstraintModel ndarray fields, in declaration order (the one None-able
#: field is ``gesture_occupancy``, absent on corpora without a neck tag).
_CONSTRAINT_ARRAY_FIELDS = (
    "macro_prior",
    "macro_occupancy",
    "macro_trans_coupled",
    "macro_end_prob",
    "micro_end_prob",
    "subloc_prior",
    "posture_occupancy",
    "gesture_occupancy",
    "subloc_occupancy",
    "subloc_trans",
)


def constraint_model_to_dict(cm: ConstraintModel) -> Dict:
    """Plain-dict form of a mined constraint model."""
    out: Dict = {
        "macro_index": _label_index_to_obj(cm.macro_index),
        "posture_index": _label_index_to_obj(cm.posture_index),
        "gesture_index": _label_index_to_obj(cm.gesture_index),
        "subloc_index": _label_index_to_obj(cm.subloc_index),
    }
    for name in _CONSTRAINT_ARRAY_FIELDS:
        out[name] = array_to_obj(getattr(cm, name))
    return out


def constraint_model_from_dict(data: Dict) -> ConstraintModel:
    """Inverse of :func:`constraint_model_to_dict`.

    Reads only the listed keys, so dicts written when the model also
    stored tables no recogniser reads (the uncoupled macro transition and
    the posture/gesture priors and transitions) still load.
    """
    kwargs = {
        "macro_index": _label_index_from_obj(data["macro_index"]),
        "posture_index": _label_index_from_obj(data["posture_index"]),
        "gesture_index": _label_index_from_obj(data["gesture_index"]),
        "subloc_index": _label_index_from_obj(data["subloc_index"]),
    }
    for name in _CONSTRAINT_ARRAY_FIELDS:
        kwargs[name] = array_from_obj(data[name])
    return ConstraintModel(**kwargs)
