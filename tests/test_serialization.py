"""Round-trip tests for JSON serialisation and the CASAS ADLMR format."""

import io
from datetime import datetime

import numpy as np
import pytest

from repro.datasets.cace import generate_cace_dataset
from repro.datasets.casas import CASAS_TASKS, generate_casas_dataset
from repro.datasets.casas_format import (
    CasasEvent,
    default_sensor_map,
    events_to_sequence,
    parse_line,
    read_events,
    sequence_to_events,
    write_events,
)
from repro.mining.correlation_miner import CorrelationMiner
from repro.util.serialization import (
    dataset_from_dict,
    dataset_to_dict,
    load_dataset,
    load_rule_set,
    rule_set_from_dict,
    rule_set_to_dict,
    save_dataset,
    save_rule_set,
)

from decode_spec import is_consistent


@pytest.fixture(scope="module")
def small_dataset():
    return generate_cace_dataset(
        n_homes=1, sessions_per_home=2, duration_s=900.0, seed=41
    )


@pytest.fixture(scope="module")
def rule_set(small_dataset):
    return CorrelationMiner(min_support=0.08).mine(small_dataset.sequences)


class TestRuleSetRoundTrip:
    def test_dict_round_trip_preserves_rules(self, rule_set):
        restored = rule_set_from_dict(rule_set_to_dict(rule_set))
        assert len(restored.forcing_rules) == len(rule_set.forcing_rules)
        assert {(r.antecedent, r.consequent) for r in restored.forcing_rules} == {
            (r.antecedent, r.consequent) for r in rule_set.forcing_rules
        }
        assert {frozenset((e.a, e.b)) for e in restored.exclusions} == {
            frozenset((e.a, e.b)) for e in rule_set.exclusions
        }

    def test_soft_exclusions_dropped_on_load(self, rule_set):
        # Older files stored behavioural exclusions as "hard": false and
        # physical ones as "hard": true; only the latter ever pruned.
        data = rule_set_to_dict(rule_set)
        for excl in data["exclusions"]:
            excl["hard"] = True
        bath = ["u1", "t", "subloc", "SR9"], ["u2", "t", "subloc", "SR9"]
        data["exclusions"].append(
            {"a": bath[0], "b": bath[1], "support_a": 0.1, "support_b": 0.1, "hard": True}
        )
        data["exclusions"].append(
            {
                "a": ["u1", "t", "macro", "cooking"],
                "b": ["u2", "t", "macro", "watching_tv"],
                "support_a": 0.2,
                "support_b": 0.3,
                "hard": False,
            }
        )
        restored = rule_set_from_dict(data)
        assert len(restored.exclusions) == len(rule_set.exclusions) + 1
        assert not any(e.a.attr == "macro" for e in restored.exclusions)
        assert "hard" not in rule_set_to_dict(restored)["exclusions"][-1]

    def test_file_round_trip(self, rule_set, tmp_path):
        path = tmp_path / "rules.json"
        save_rule_set(rule_set, path)
        restored = load_rule_set(path)
        assert restored.n_rules == rule_set.n_rules

    def test_consistency_checks_survive(self, rule_set):
        restored = rule_set_from_dict(rule_set_to_dict(rule_set))
        for rule in restored.forcing_rules[:5]:
            items = frozenset(rule.antecedent) | {rule.consequent}
            assert is_consistent(restored, items)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            rule_set_from_dict({"schema": "bogus/9"})


class TestDatasetRoundTrip:
    def test_dict_round_trip(self, small_dataset):
        restored = dataset_from_dict(dataset_to_dict(small_dataset))
        assert restored.name == small_dataset.name
        assert restored.macro_vocab == small_dataset.macro_vocab
        assert len(restored.sequences) == len(small_dataset.sequences)
        a = small_dataset.sequences[0]
        b = restored.sequences[0]
        assert a.resident_ids == b.resident_ids
        assert len(a) == len(b)
        for t in range(len(a)):
            assert a.steps[t].rooms_fired == b.steps[t].rooms_fired
            assert a.steps[t].sublocs_fired == b.steps[t].sublocs_fired
            for rid in a.resident_ids:
                oa, ob = a.steps[t].observations[rid], b.steps[t].observations[rid]
                assert oa.posture == ob.posture
                assert np.allclose(oa.features, ob.features)
                assert a.truths[t][rid] == b.truths[t][rid]

    def test_file_round_trip_and_training(self, small_dataset, tmp_path):
        path = tmp_path / "corpus.json"
        save_dataset(small_dataset, path)
        restored = load_dataset(path)
        # The restored corpus must be usable for training, not just reading.
        from repro.core.engine import CaceEngine
        from repro.datasets.trace import train_test_split

        train, test = train_test_split(restored, 0.5, seed=3)
        engine = CaceEngine(strategy="ncs", seed=1)
        engine.fit(train)
        pred = engine.predict(test.sequences[0])
        assert set(pred) == set(test.sequences[0].resident_ids)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_dict({"schema": "bogus/9"})


class TestAdlmrFormat:
    def test_parse_line(self):
        event = parse_line("2009-02-02 12:28:06.843806\tM13\tON\t1\t2")
        assert event.sensor_id == "M13"
        assert event.value == "ON"
        assert event.resident == 1
        assert event.task == 2
        assert event.timestamp == datetime(2009, 2, 2, 12, 28, 6, 843806)

    def test_parse_skips_blank_and_comment(self):
        assert parse_line("") is None
        assert parse_line("# header") is None

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_line("2009-02-02 12:28:06 M13 ON")

    def test_write_read_round_trip(self):
        events = [
            CasasEvent(datetime(2009, 2, 2, 12, 0, 0, 500000), "M04", "ON", 1, 3),
            CasasEvent(datetime(2009, 2, 2, 12, 0, 15), "I_broom", "ON", 2, 6),
        ]
        buffer = io.StringIO()
        write_events(events, buffer)
        buffer.seek(0)
        restored = read_events(buffer)
        assert restored == events

    def test_export_then_import_casas_session(self):
        dataset = generate_casas_dataset(
            n_pairs=1, sessions_per_pair=1, duration_scale=0.3, seed=13
        )
        seq = dataset.sequences[0]
        task_index = {name: i + 1 for i, name in enumerate(CASAS_TASKS)}
        events = sequence_to_events(seq, task_index)
        assert events, "export produced no events"

        task_names = {i: name for name, i in task_index.items()}
        restored = events_to_sequence(
            events, default_sensor_map(), task_names, step_s=seq.step_s, seed=3
        )
        assert len(restored.resident_ids) == 2
        # Macro labels recovered from the task annotations should agree with
        # the original ground truth on a solid majority of steps (boundary
        # steps shift by one discretisation window).
        n = min(len(seq), len(restored))
        agreements = []
        for orig_rid in seq.resident_ids:
            best = 0.0
            for rest_rid in restored.resident_ids:
                agree = np.mean(
                    [
                        seq.truths[t][orig_rid].macro
                        == restored.truths[t][rest_rid].macro
                        for t in range(n)
                    ]
                )
                best = max(best, float(agree))
            agreements.append(best)
        assert np.mean(agreements) > 0.7

    def test_import_requires_events(self):
        with pytest.raises(ValueError):
            events_to_sequence([], default_sensor_map(), {})

    def test_sensor_map_covers_all_subregions(self):
        mapping = default_sensor_map()
        assert len(mapping) == 14
        assert mapping["M04"] == "SR4"
        assert mapping["M10"] == "SR10"
