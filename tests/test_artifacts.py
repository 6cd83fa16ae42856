"""Versioned model artifacts: save/load round-trips and integrity checks.

The contract: a reloaded engine is *bit-identical* to the saved one —
same predicted labels, same posterior marginals, same DecodeStats work
accounting — for every model family (NH flat HMM, NCR frame-wise, NCS/C2
coupled N-chain on pairs and on 3 residents).  Artifacts carry a schema
version and a sha256 fingerprint; both are verified on load.
"""

import copy
import json

import numpy as np
import pytest

from repro.core.api import DecodeStats
from repro.core.engine import CaceEngine
from repro.core.loosely_coupled import NChainHdbn
from repro.datasets import generate_cace_dataset, train_test_split
from repro.mining import initial_rule_set
from repro.util.artifacts import (
    _REMOVED_OPTIONS,
    MODEL_SCHEMA,
    _fingerprint,
    engine_from_dict,
    engine_to_dict,
)
from repro.util.serialization import array_to_obj

STRATEGIES = ("nh", "ncr", "ncs", "c2")

#: Options each artifact kind stored before they were fixed in code.
REMOVED_KEYS = {
    "nchain": (
        "prune_cross",
        "min_change_prob",
        "pir_miss_penalty",
        "soft_exclusion_penalty",
        "use_feature_gmm",
        "unexplained_subloc_penalty",
        "unexplained_room_penalty",
    ),
    "single_user": ("min_change_prob", "pir_miss_penalty", "temporal", "use_feature_gmm"),
}
REMOVED_CASES = [(kind, key) for kind, keys in REMOVED_KEYS.items() for key in keys]


def _decoded(engine, seq):
    """Labels and DecodeStats of one offline decode by the engine's model."""
    stats = DecodeStats()
    return engine.model_.decode(seq, stats), stats


@pytest.fixture(scope="module", params=STRATEGIES)
def fitted_engine(request, cace_split):
    train, _ = cace_split
    return CaceEngine(strategy=request.param, seed=11).fit(train)


class TestRoundTrip:
    def test_labels_and_stats_bit_identical(self, fitted_engine, cace_split, tmp_path):
        _, test = cace_split
        seq = test.sequences[0]
        path = tmp_path / "model.json"
        before, before_stats = _decoded(fitted_engine, seq)

        fitted_engine.save(path)
        reloaded = CaceEngine.load(path)

        after, after_stats = _decoded(reloaded, seq)
        assert after == before
        assert after_stats == before_stats

    def test_posterior_marginals_bit_identical(
        self, fitted_engine, cace_split, tmp_path
    ):
        _, test = cace_split
        seq = test.sequences[0]
        path = tmp_path / "model.json"
        fitted_engine.save(path)
        reloaded = CaceEngine.load(path)

        before = fitted_engine.posterior_marginals(seq)
        after = reloaded.posterior_marginals(seq)
        assert set(after) == set(before)
        for rid in before:
            assert np.array_equal(before[rid], after[rid])

    def test_engine_config_survives(self, fitted_engine, tmp_path):
        path = tmp_path / "model.json"
        fitted_engine.save(path)
        reloaded = CaceEngine.load(path)
        assert reloaded.strategy == fitted_engine.strategy
        assert reloaded.describe() == fitted_engine.describe()
        assert type(reloaded.model_) is type(fitted_engine.model_)

    def test_rule_set_stored_once(self, fitted_engine):
        # The model's copy is the one pool workers read; the engine's rule
        # set is restored from it.
        payload = engine_to_dict(fitted_engine)
        assert "rule_set" not in payload
        reloaded = engine_from_dict(payload)
        assert reloaded.rule_set_ == fitted_engine.rule_set_
        if reloaded.rule_set_ is not None:
            assert reloaded.rule_set_ is reloaded.model_.rule_set

    def test_rules_the_model_does_not_hold_are_stored(self, cace_split):
        # ncs prunes with no rules, but the engine keeps its initial rules.
        train, _ = cace_split
        engine = CaceEngine(strategy="ncs", initial_rules=initial_rule_set(), seed=11)
        engine.fit(train)
        payload = engine_to_dict(engine)
        assert payload["model"]["rule_set"] is None
        assert payload["rule_set"] is not None
        reloaded = engine_from_dict(payload)
        assert reloaded.rule_set_ == engine.rule_set_
        assert reloaded.model_.rule_set is None

    def test_nchain_trio_round_trips(self, tmp_path):
        dataset = generate_cace_dataset(
            n_homes=1,
            sessions_per_home=3,
            duration_s=700.0,
            residents_per_home=3,
            seed=42,
        )
        train, test = train_test_split(dataset, 0.67, seed=7)
        engine = CaceEngine(strategy="c2", seed=0).fit(train)
        assert type(engine.model_).__name__ == "NChainHdbn"
        seq = test.sequences[0]
        before = engine.predict(seq)

        path = tmp_path / "trio.json"
        engine.save(path)
        reloaded = CaceEngine.load(path)
        assert reloaded.predict(seq) == before


class TestLegacyArtifacts:
    """``repro.model/1`` files of the former pair-only model (kind
    ``"coupled"``, carrying the since-removed ``prune_per_user`` and
    ``use_sequence_kernels`` keys) still load, and so do files that store
    an option since fixed in code, as long as they store its fixed value,
    files whose constraint model carries tables since dropped, files
    whose rule sets carry soft exclusions, and files that store the rule
    set twice."""

    @pytest.fixture(scope="class")
    def pair_engine(self, cace_split):
        train, _ = cace_split
        return CaceEngine(strategy="c2", seed=11).fit(train)

    @pytest.fixture(scope="class")
    def engines(self, pair_engine, cace_split):
        train, _ = cace_split
        ncr = CaceEngine(strategy="ncr", seed=11).fit(train)
        return {"nchain": pair_engine, "single_user": ncr}

    @staticmethod
    def _parent_shaped(engine):
        """The artifact as written before the rule set was stored once: an
        equal copy of the model's rule set also sits at the top level."""
        payload = engine_to_dict(engine)
        payload = {
            "schema": payload["schema"],
            "engine": payload["engine"],
            "rule_set": copy.deepcopy(payload["model"]["rule_set"]),
            "model": payload["model"],
        }
        payload["fingerprint"] = _fingerprint(payload)
        return payload

    @pytest.mark.parametrize("kind", ["nchain", "single_user"])
    def test_rule_set_stored_twice_loads(self, kind, engines, cace_split):
        _, test = cace_split
        seq = test.sequences[0]
        engine = engines[kind]
        payload = self._parent_shaped(engine)
        assert payload["rule_set"]["forcing_rules"]
        legacy = engine_from_dict(payload)
        assert legacy.rule_set_ == engine.rule_set_
        assert legacy.model_.rule_set == engine.model_.rule_set
        assert _decoded(legacy, seq) == _decoded(engine, seq)
        before = engine.posterior_marginals(seq)
        after = legacy.posterior_marginals(seq)
        for rid in before:
            assert np.array_equal(before[rid], after[rid])

    @staticmethod
    def _with_config(engine, kind, **config):
        payload = engine_to_dict(engine)
        assert payload["model"]["kind"] == kind
        payload["model"]["config"].update(config)
        payload["fingerprint"] = _fingerprint(payload)
        return payload

    @pytest.mark.parametrize("kind,key", REMOVED_CASES)
    def test_removed_option_at_fixed_value_loads(self, kind, key, engines, cace_split):
        _, test = cace_split
        seq = test.sequences[0]
        engine = engines[kind]
        legacy = engine_from_dict(
            self._with_config(engine, kind, **{key: _REMOVED_OPTIONS[key]})
        )
        assert _decoded(legacy, seq) == _decoded(engine, seq)
        before = engine.posterior_marginals(seq)
        after = legacy.posterior_marginals(seq)
        for rid in before:
            assert np.array_equal(before[rid], after[rid])

    @pytest.mark.parametrize("kind,key", REMOVED_CASES)
    def test_removed_option_at_other_value_rejected(self, kind, key, engines):
        fixed = _REMOVED_OPTIONS[key]
        other = (not fixed) if isinstance(fixed, bool) else fixed - 1.0
        with pytest.raises(ValueError, match=key):
            engine_from_dict(self._with_config(engines[kind], kind, **{key: other}))

    def test_soft_exclusions_of_older_artifacts_dropped(self, pair_engine, cace_split):
        # Before soft exclusions were removed, both rule sets stored every
        # exclusion with a "hard" flag, behavioural ones as "hard": false,
        # and the config stored the since-fixed scoring options.
        _, test = cace_split
        seq = test.sequences[0]
        payload = self._parent_shaped(pair_engine)
        soft = {
            "a": ["u1", "t", "macro", "cooking"],
            "b": ["u2", "t", "macro", "watching_tv"],
            "support_a": 0.2,
            "support_b": 0.3,
            "hard": False,
        }
        for rules in (payload["rule_set"], payload["model"]["rule_set"]):
            for excl in rules["exclusions"]:
                excl["hard"] = True
            rules["exclusions"].append(dict(soft))
        payload["model"]["config"].update(
            soft_exclusion_penalty=0.0,
            use_feature_gmm=True,
            unexplained_subloc_penalty=-4.5,
            unexplained_room_penalty=-2.5,
        )
        payload["fingerprint"] = _fingerprint(payload)
        legacy = engine_from_dict(payload)
        for rules in (legacy.rule_set_, legacy.model_.rule_set):
            assert rules.exclusions == pair_engine.rule_set_.exclusions
        assert _decoded(legacy, seq) == _decoded(pair_engine, seq)
        before = pair_engine.posterior_marginals(seq)
        after = legacy.posterior_marginals(seq)
        for rid in before:
            assert np.array_equal(before[rid], after[rid])

    def _legacy(self, engine, **config):
        payload = engine_to_dict(engine)
        payload["model"]["kind"] = "coupled"
        payload["model"]["config"].update(
            {"prune_per_user": True, "use_sequence_kernels": True}, **config
        )
        payload["fingerprint"] = _fingerprint(payload)
        return payload

    def test_coupled_kind_loads_as_two_chain_nchain(self, pair_engine, cace_split):
        _, test = cace_split
        seq = test.sequences[0]
        legacy = engine_from_dict(self._legacy(pair_engine))
        assert type(legacy.model_) is NChainHdbn
        assert len(legacy.model_.trellis_sessions(seq)[0].rids) == 2
        assert legacy.predict(seq) == pair_engine.predict(seq)
        before = pair_engine.posterior_marginals(seq)
        after = legacy.posterior_marginals(seq)
        for rid in before:
            assert np.array_equal(before[rid], after[rid])

    def test_prune_per_user_false_rejected(self, pair_engine):
        with pytest.raises(ValueError, match="prune_per_user"):
            engine_from_dict(self._legacy(pair_engine, prune_per_user=False))

    @pytest.mark.parametrize("kind", ["nchain", "single_user"])
    def test_removed_constraint_tables_load(self, kind, engines, cace_split):
        # Files written before the miner stopped storing tables no recogniser
        # reads carry five extra arrays in their constraint model.
        _, test = cace_split
        seq = test.sequences[0]
        payload = engine_to_dict(engines[kind])
        fresh = engine_from_dict(payload)
        cm = fresh.model_.constraint_model
        n_m, n_p = cm.n_macro, len(cm.posture_index)
        n_g = len(cm.gesture_index)
        rng = np.random.default_rng(0)
        removed = {
            "macro_trans": rng.dirichlet(np.ones(n_m), size=n_m),
            "posture_prior": rng.dirichlet(np.ones(n_p), size=n_m),
            "gesture_prior": rng.dirichlet(np.ones(n_g), size=n_m),
            "posture_trans": rng.dirichlet(np.ones(n_p), size=(n_m, n_p)),
            "gesture_trans": rng.dirichlet(np.ones(n_g), size=(n_m, n_g)),
        }
        stored = payload["model"]["constraint_model"]
        assert not set(removed) & set(stored)
        stored.update({name: array_to_obj(arr) for name, arr in removed.items()})
        payload["fingerprint"] = _fingerprint(payload)
        legacy = engine_from_dict(payload)
        for name in removed:
            assert not hasattr(legacy.model_.constraint_model, name)

        assert _decoded(legacy, seq) == _decoded(fresh, seq)
        before = fresh.posterior_marginals(seq)
        after = legacy.posterior_marginals(seq)
        assert set(after) == set(before)
        for rid in before:
            assert np.array_equal(before[rid], after[rid])


class TestIntegrity:
    def test_unfitted_engine_refuses_to_save(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            CaceEngine(strategy="c2").save(tmp_path / "nope.json")

    def test_schema_mismatch_rejected(self, fitted_engine, tmp_path):
        payload = engine_to_dict(fitted_engine)
        payload["schema"] = "repro.model/999"
        path = tmp_path / "bad_schema.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            CaceEngine.load(path)

    def test_corrupted_artifact_rejected(self, fitted_engine, tmp_path):
        payload = engine_to_dict(fitted_engine)
        payload["engine"]["strategy"] = "tampered"
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="fingerprint"):
            CaceEngine.load(path)

    def test_unknown_model_kind_rejected(self, fitted_engine, tmp_path):
        payload = engine_to_dict(fitted_engine)
        payload["model"] = {"kind": "mystery"}
        payload["fingerprint"] = _fingerprint(payload)
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="kind"):
            CaceEngine.load(path)

    def test_artifact_is_schema_stamped_json(self, fitted_engine, tmp_path):
        path = tmp_path / "model.json"
        fitted_engine.save(path)
        data = json.loads(path.read_text())
        assert data["schema"] == MODEL_SCHEMA
        assert isinstance(data["fingerprint"], str)
