"""Versioned fitted-model artifacts: fit on one box, serve on N.

:func:`save_engine` writes a fitted :class:`~repro.core.engine.CaceEngine`
— mined rule set, constraint statistics, GMM banks, object CPTs, and the
model family's configuration — as a single JSON document with an embedded
schema version (``repro.model/1``) and a sha256 content fingerprint.
:func:`load_engine` verifies both before reconstructing the engine.

Only *counted/fitted state* is stored.  Everything derived from it —
compiled rule kernels, state-space builders, precomputed transition log
tables, the stacked GMM bank, the object-evidence baseline — is rebuilt
deterministically by the model constructors on load, so a reloaded engine
decodes **bit-identically** to the one that was saved (floats round-trip
exactly through JSON's shortest-repr encoding; the derived tables are pure
functions of them).

No pickle anywhere: artifacts are inspectable, diff-able, and safe to load
from untrusted storage.  A worker pool receives its model the same way, as
the bare-model payload of :func:`model_to_payload`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Union

from repro.core.chdbn import MIN_CHANGE_PROB, GmmBank, _MacroGmm
from repro.core.emissions import ObjectEvidenceTable
from repro.core.engine import CaceEngine
from repro.core.hdbn import SingleUserHdbn
from repro.core.kernels import PIR_MISS_PENALTY
from repro.core.loosely_coupled import (
    UNEXPLAINED_ROOM_PENALTY,
    UNEXPLAINED_SUBLOC_PENALTY,
    NChainHdbn,
)
from repro.models.distributions import GaussianEmission, LabelIndex
from repro.models.hmm import MacroHmm
from repro.util.serialization import (
    array_from_obj,
    array_to_obj,
    constraint_model_from_dict,
    constraint_model_to_dict,
    rule_set_from_dict,
    rule_set_to_dict,
)

MODEL_SCHEMA = "repro.model/1"

#: Constructor arguments preserved per HDBN family (everything else the
#: dataclasses derive in ``__post_init__``).
_HDBN_CONFIG = {
    "nchain": (
        "gmm_components",
        "max_states_per_user",
        "max_joint_states",
        "max_joint_states_pruned",
    ),
    "single_user": (
        "gmm_components",
        "max_states_per_user",
    ),
}

#: Artifact kind -> model class.  ``"coupled"`` artifacts were written by
#: the former pair-only model; their config is a 2-chain NChainHdbn config.
_HDBN_CLASSES = {
    "coupled": NChainHdbn,
    "nchain": NChainHdbn,
    "single_user": SingleUserHdbn,
}


#: Options older artifacts store that are now fixed in code, with their
#: fixed values.  Only an artifact that stored the fixed value can be
#: reproduced.
_REMOVED_OPTIONS = {
    "prune_per_user": True,
    "prune_cross": True,
    "min_change_prob": MIN_CHANGE_PROB,
    "pir_miss_penalty": PIR_MISS_PENALTY,
    "temporal": False,
    "use_feature_gmm": True,
    "unexplained_subloc_penalty": UNEXPLAINED_SUBLOC_PENALTY,
    "unexplained_room_penalty": UNEXPLAINED_ROOM_PENALTY,
    "soft_exclusion_penalty": 0.0,
}


def _hdbn_config(obj: Dict) -> Dict:
    """The stored constructor arguments, minus keys of removed options.

    Older artifacts carry ``use_sequence_kernels`` (the sequence kernels
    are now the only emission path, so it is dropped) and the
    :data:`_REMOVED_OPTIONS`, whose stored value must be the fixed one.
    """
    config = dict(obj["config"])
    config.pop("use_sequence_kernels", None)
    for key, fixed in _REMOVED_OPTIONS.items():
        if key in config and config.pop(key) != fixed:
            raise ValueError(
                f"artifact sets {key}={obj['config'][key]!r}, which is no longer "
                f"supported ({key} is fixed at {fixed!r})"
            )
    return config


# ---------------------------------------------------------------------------
# model families
# ---------------------------------------------------------------------------


def _gmms_to_obj(gmms: Dict[int, _MacroGmm]) -> Dict:
    return {
        str(m): {
            "weights": array_to_obj(g.weights),
            "means": array_to_obj(g.means),
            "inv_covs": array_to_obj(g.inv_covs),
            "logdets": array_to_obj(g.logdets),
        }
        for m, g in sorted(gmms.items())
    }


def _gmms_from_obj(obj: Dict) -> Dict[int, _MacroGmm]:
    return {
        int(m): _MacroGmm(
            weights=array_from_obj(g["weights"]),
            means=array_from_obj(g["means"]),
            inv_covs=array_from_obj(g["inv_covs"]),
            logdets=array_from_obj(g["logdets"]),
        )
        for m, g in obj.items()
    }


def _hdbn_to_obj(model, kind: str) -> Dict:
    return {
        "kind": kind,
        "config": {name: getattr(model, name) for name in _HDBN_CONFIG[kind]},
        "constraint_model": constraint_model_to_dict(model.constraint_model),
        "rule_set": rule_set_to_dict(model.rule_set)
        if model.rule_set is not None
        else None,
        "gmms": _gmms_to_obj(model.gmms_),
        "object_index": {obj: int(i) for obj, i in sorted(model._object_index.items())},
        "log_obj": array_to_obj(model._log_obj),
    }


def _hdbn_from_obj(obj: Dict):
    cls = _HDBN_CLASSES[obj["kind"]]
    rules = obj["rule_set"]
    model = cls(
        constraint_model=constraint_model_from_dict(obj["constraint_model"]),
        rule_set=rule_set_from_dict(rules) if rules is not None else None,
        seed=0,  # the RNG only seeds fitting; the fitted state is installed below
        **_hdbn_config(obj),
    )
    model.gmms_ = _gmms_from_obj(obj["gmms"])
    model._object_index = {name: int(i) for name, i in obj["object_index"].items()}
    model._log_obj = array_from_obj(obj["log_obj"])
    # The same derived banks fit_emission_tables builds after fitting.
    model._obj_evidence = ObjectEvidenceTable(model._object_index, model._log_obj)
    model._gmm_bank = GmmBank(model.gmms_)
    return model


def _hmm_to_obj(model: MacroHmm) -> Dict:
    em = model.emission_
    return {
        "kind": "macro_hmm",
        "config": {"alpha": model.alpha},
        "macro_index": list(model.macro_index.labels),
        "prior": array_to_obj(model.prior_),
        "trans": array_to_obj(model.trans_),
        "emission": {
            "dim": em.dim,
            "means": {str(s): array_to_obj(v) for s, v in sorted(em.means.items())},
            "covariances": {
                str(s): array_to_obj(v) for s, v in sorted(em.covariances.items())
            },
            "pooled_mean": array_to_obj(em._pooled_mean),
            "pooled_cov": array_to_obj(em._pooled_cov),
        },
    }


def _hmm_from_obj(obj: Dict) -> MacroHmm:
    model = MacroHmm(alpha=obj["config"]["alpha"])
    model.macro_index = LabelIndex(tuple(obj["macro_index"]))
    model.prior_ = array_from_obj(obj["prior"])
    model.trans_ = array_from_obj(obj["trans"])
    em_obj = obj["emission"]
    em = GaussianEmission(dim=int(em_obj["dim"]))
    em.means = {int(s): array_from_obj(v) for s, v in em_obj["means"].items()}
    em.covariances = {
        int(s): array_from_obj(v) for s, v in em_obj["covariances"].items()
    }
    em._pooled_mean = array_from_obj(em_obj["pooled_mean"])
    em._pooled_cov = array_from_obj(em_obj["pooled_cov"])
    model.emission_ = em
    return model


def _model_to_obj(model) -> Dict:
    """Artifact form of a bare fitted model.

    Exact-type check on purpose: a subclass (e.g. the test spec's
    ``ReferenceNChainHdbn``) may carry state or overrides the codec does
    not capture, so it is refused rather than written out as its parent
    family.
    """
    family = type(model)
    if family is NChainHdbn:
        return _hdbn_to_obj(model, "nchain")
    if family is SingleUserHdbn:
        return _hdbn_to_obj(model, "single_user")
    if family is MacroHmm:
        return _hmm_to_obj(model)
    raise TypeError(f"cannot serialise model family {family.__name__}")


def _model_from_obj(obj: Dict):
    kind = obj.get("kind")
    if kind in _HDBN_CLASSES:
        return _hdbn_from_obj(obj)
    if kind == "macro_hmm":
        return _hmm_from_obj(obj)
    raise ValueError(f"unknown model kind {kind!r} in artifact")


# ---------------------------------------------------------------------------
# bare-model payloads (worker-pool shipping)
# ---------------------------------------------------------------------------


def model_to_payload(model) -> bytes:
    """Serialise a bare fitted model as compact JSON artifact bytes."""
    obj = {"schema": MODEL_SCHEMA, "model": _model_to_obj(model)}
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def model_from_payload(payload: bytes):
    """Inverse of :func:`model_to_payload` (derived tables rebuilt)."""
    obj = json.loads(payload.decode("utf-8"))
    schema = obj.get("schema")
    if schema != MODEL_SCHEMA:
        raise ValueError(
            f"unsupported model-payload schema {schema!r} (want {MODEL_SCHEMA})"
        )
    return _model_from_obj(obj["model"])


# ---------------------------------------------------------------------------
# engine artifacts
# ---------------------------------------------------------------------------


def _fingerprint(payload: Dict) -> str:
    """sha256 over the canonical JSON form (fingerprint field excluded)."""
    body = {k: v for k, v in payload.items() if k != "fingerprint"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def engine_to_dict(engine: CaceEngine) -> Dict:
    """Plain-dict artifact form of a *fitted* engine."""
    if engine.model_ is None:
        raise ValueError("cannot save an unfitted engine (call fit first)")
    payload: Dict = {
        "schema": MODEL_SCHEMA,
        "engine": {
            "strategy": engine.strategy,
            "min_support": engine.min_support,
            "min_confidence": engine.min_confidence,
            "gmm_components": engine.gmm_components,
            "max_states_per_user": engine.max_states_per_user,
        },
        "model": _model_to_obj(engine.model_),
    }
    # The model carries the rule set it prunes with (pool workers load only
    # the model); the engine's is stored only where it differs, as under
    # ncs with initial rules.
    rules = engine.rule_set_
    if rules != getattr(engine.model_, "rule_set", None):
        payload["rule_set"] = rule_set_to_dict(rules) if rules is not None else None
    payload["fingerprint"] = _fingerprint(payload)
    return payload


def engine_from_dict(data: Dict) -> CaceEngine:
    """Inverse of :func:`engine_to_dict`, with schema + integrity checks."""
    schema = data.get("schema")
    if schema != MODEL_SCHEMA:
        raise ValueError(
            f"unsupported model-artifact schema {schema!r} (want {MODEL_SCHEMA})"
        )
    expected = data.get("fingerprint")
    actual = _fingerprint(data)
    if expected != actual:
        raise ValueError(
            "model artifact fingerprint mismatch "
            f"(stored {str(expected)[:12]}…, computed {actual[:12]}…) — "
            "the file is corrupted or was edited after saving"
        )
    cfg = data["engine"]
    engine = CaceEngine(
        strategy=cfg["strategy"],
        min_support=cfg["min_support"],
        min_confidence=cfg["min_confidence"],
        gmm_components=cfg["gmm_components"],
        max_states_per_user=cfg["max_states_per_user"],
        seed=0,  # the RNG only drives fitting, which already happened
    )
    engine.model_ = _model_from_obj(data["model"])
    if "rule_set" in data:  # differs from the model's, or an older artifact
        rules = data["rule_set"]
        engine.rule_set_ = rule_set_from_dict(rules) if rules is not None else None
    else:
        engine.rule_set_ = getattr(engine.model_, "rule_set", None)
    return engine


def save_engine(engine: CaceEngine, path: Union[str, Path]) -> None:
    """Write a fitted engine as a ``repro.model/1`` JSON artifact."""
    Path(path).write_text(json.dumps(engine_to_dict(engine)))


def load_engine(path: Union[str, Path]) -> CaceEngine:
    """Read an artifact written by :func:`save_engine`."""
    return engine_from_dict(json.loads(Path(path).read_text()))
