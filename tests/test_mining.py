"""Unit + property tests for Apriori, rules, and the context miners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import (
    Apriori,
    AssociationRule,
    CorrelationMiner,
    Item,
    encode_sequence,
    initial_rule_set,
    merge_redundant,
    table_iv_rules,
)
from repro.mining.context_rules import encode_dataset, format_item

from decode_spec import is_consistent, satisfied_by


def _item(slot, attr, value, time="t"):
    return Item(slot, time, attr, value)


def _transactions():
    """Hand-built transactions with a planted rule and exclusion.

    Planted: {A, B} => C with confidence 1.0; X and Y never co-occur.
    """
    a, b, c = _item("u1", "posture", "A"), _item("u1", "subloc", "B"), _item("u1", "macro", "C")
    d = _item("u1", "macro", "D")
    x, y = _item("u1", "subloc", "X"), _item("u2", "subloc", "X")
    base = []
    for i in range(40):
        t = {a, b, c}
        if i % 2 == 0:
            t.add(x)
        else:
            t.add(y)
        base.append(frozenset(t))
    for i in range(40):
        t = {a, d} if i % 2 else {b, d}
        if i % 2 == 0:
            t.add(x)
        else:
            t.add(y)
        base.append(frozenset(t))
    return base


class TestApriori:
    def test_single_item_supports_exact(self):
        transactions = _transactions()
        apriori = Apriori(min_support=0.1)
        itemsets = apriori.mine_itemsets(transactions)
        a = frozenset([_item("u1", "posture", "A")])
        # A appears in 40 + 20 of 80 transactions.
        assert itemsets.support(a) == pytest.approx(60 / 80)

    def test_pair_support(self):
        itemsets = Apriori(min_support=0.1).mine_itemsets(_transactions())
        ab = frozenset([_item("u1", "posture", "A"), _item("u1", "subloc", "B")])
        assert itemsets.support(ab) == pytest.approx(40 / 80)

    def test_min_support_filters(self):
        itemsets = Apriori(min_support=0.9).mine_itemsets(_transactions())
        assert len(itemsets.supports) == 0

    def test_planted_rule_found_with_full_confidence(self):
        apriori = Apriori(min_support=0.1, min_confidence=0.99)
        rules = apriori.mine_rules(
            apriori.mine_itemsets(_transactions()), consequent_attrs=("macro",)
        )
        planted = [
            r
            for r in rules
            if r.consequent.value == "C"
            and {i.value for i in r.antecedent} == {"A", "B"}
        ]
        assert planted and planted[0].confidence == pytest.approx(1.0)

    def test_no_rule_below_confidence(self):
        apriori = Apriori(min_support=0.1, min_confidence=0.99)
        rules = apriori.mine_rules(
            apriori.mine_itemsets(_transactions()), consequent_attrs=("macro",)
        )
        # A => D has confidence 20/60 < 0.99; it must not be emitted.
        assert not any(
            r.consequent.value == "D" and {i.value for i in r.antecedent} == {"A"}
            for r in rules
        )

    def test_empty_transactions_rejected(self):
        with pytest.raises(ValueError):
            Apriori().mine_itemsets([])

    def test_zero_min_support_reports_only_occurring_itemsets(self):
        a, b, c = (_item("u1", "macro", v) for v in "abc")
        apriori = Apriori(min_support=0.0, min_confidence=0.0)
        itemsets = apriori.mine_itemsets([frozenset([a]), frozenset([b]), frozenset([c])])
        assert set(itemsets.supports) == {frozenset([a]), frozenset([b]), frozenset([c])}
        assert apriori.mine_rules(itemsets) == []

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_support_antimonotone(self, n_items):
        # Random small transaction DB: support(superset) <= support(subset).
        rng = np.random.default_rng(n_items)
        universe = [_item("u1", "attr", str(i)) for i in range(n_items)]
        transactions = [
            frozenset(it for it in universe if rng.random() < 0.5) for _ in range(60)
        ]
        itemsets = Apriori(min_support=0.01).mine_itemsets(transactions)
        for itemset, support in itemsets.supports.items():
            for item in itemset:
                subset = frozenset(itemset - {item})
                if subset:
                    assert itemsets.support(subset) >= support - 1e-12


class TestRules:
    def test_satisfied_by_open_world(self):
        rule = AssociationRule(
            antecedent=frozenset([_item("u1", "posture", "cycling")]),
            consequent=_item("u1", "macro", "exercising"),
            support=0.1,
            confidence=1.0,
        )
        cycling = _item("u1", "posture", "cycling")

        def holds(*items):
            return satisfied_by(rule, frozenset(items))

        # Antecedent absent: trivially satisfied.
        assert holds(_item("u1", "posture", "sitting"))
        # Fires, consequent matches.
        assert holds(cycling, _item("u1", "macro", "exercising"))
        # Fires, conflicting macro value present: violated.
        assert not holds(cycling, _item("u1", "macro", "dining"))
        # Fires, macro attribute absent entirely: not a violation.
        assert holds(cycling)

    def test_merge_redundant_drops_dominated(self):
        general = AssociationRule(
            antecedent=frozenset([_item("u1", "subloc", "SR1")]),
            consequent=_item("u1", "macro", "exercising"),
            support=0.1, confidence=1.0,
        )
        specific = AssociationRule(
            antecedent=frozenset(
                [_item("u1", "subloc", "SR1"), _item("u1", "posture", "cycling")]
            ),
            consequent=_item("u1", "macro", "exercising"),
            support=0.08, confidence=1.0,
        )
        kept = merge_redundant([general, specific])
        assert kept == [general]

    def test_merge_keeps_more_confident_specific(self):
        general = AssociationRule(
            antecedent=frozenset([_item("u1", "subloc", "SR1")]),
            consequent=_item("u1", "macro", "exercising"),
            support=0.1, confidence=0.99,
        )
        specific = AssociationRule(
            antecedent=frozenset(
                [_item("u1", "subloc", "SR1"), _item("u1", "posture", "cycling")]
            ),
            consequent=_item("u1", "macro", "exercising"),
            support=0.08, confidence=1.0,
        )
        kept = merge_redundant([general, specific])
        assert len(kept) == 2

    def test_format_item(self):
        assert format_item(_item("u1", "subloc", "SR4")) == "U1(t):subloc=SR4"


class TestEncoding:
    def test_transaction_counts(self, cace_dataset):
        # A pair step is two transactions, one per slot assignment.
        seq = cace_dataset.sequences[0]
        transactions = encode_sequence(seq)
        assert len(transactions) == 2 * len(seq)
        swap = {"u1": "u2", "u2": "u1"}
        first, second = transactions[:2]
        assert second == frozenset(i._replace(slot=swap.get(i.slot, i.slot)) for i in first)

    def test_current_time_slice_only(self, cace_dataset):
        # The miner keeps only same-time rules, so no t-1 item is encoded.
        seq = cace_dataset.sequences[0]
        transactions = encode_sequence(seq)
        assert {item.time for tx in transactions for item in tx} == {"t"}
        slots = {(item.slot, item.attr) for item in transactions[5]}
        assert {("u1", "macro"), ("u2", "macro")} <= slots

    def test_slots_are_canonical(self, cace_dataset):
        transactions = encode_dataset(cace_dataset.sequences[:1])
        slots = {item.slot for t in transactions for item in t}
        assert slots <= {"u1", "u2", "amb"}


class TestCorrelationMiner:
    def test_mines_planted_exclusions(self):
        # u1 and u2 are never both in the bath.  Macro a (u1) never meets
        # d (u2) nor b meets c either, but a macro pair is behaviour, not
        # physics: no macro-macro exclusion is mined.
        def step(r):
            return frozenset([
                _item("u1", "subloc", "bath" if r % 5 in (0, 1) else "bed"),
                _item("u2", "subloc", "bath" if r % 5 in (2, 3) else "bed"),
                _item("u1", "macro", "a" if r % 2 == 0 else "b"),
                _item("u2", "macro", "c" if r % 2 == 0 else "d"),
            ])

        rules = CorrelationMiner().mine_transactions([step(r) for r in range(100)])
        got = {frozenset((e.a, e.b)) for e in rules.exclusions}
        assert got == {
            frozenset((_item("u1", "subloc", "bath"), _item("u2", "subloc", "bath"))),
        }
        assert not any(e.a.attr == e.b.attr == "macro" for e in rules.exclusions)

    def test_mines_forcing_and_exclusions(self, rule_set):
        assert len(rule_set.forcing_rules) > 0
        # Rules must force hidden attributes at time t only.
        for rule in rule_set.forcing_rules:
            assert rule.consequent.attr in ("macro", "subloc")
            assert rule.consequent.time == "t"
            assert all(item.time == "t" for item in rule.antecedent)
            assert rule.confidence >= 0.99

    def test_is_consistent_accepts_truth(self, cace_split, rule_set):
        from fit_spec import encode_step

        train, _ = cace_split
        seq = train.sequences[0]
        slot_of = {rid: f"u{i+1}" for i, rid in enumerate(seq.resident_ids)}
        ok = 0
        for step, truth in zip(seq.steps[:50], seq.truths[:50]):
            items = encode_step(truth, None, step.rooms_fired, step.objects_fired, slot_of)
            ok += is_consistent(rule_set, items)
        assert ok >= 48  # ground truth is (almost) always rule-consistent

    def test_single_and_cross_split(self, rule_set):
        single = rule_set.single_user()
        cross = rule_set.cross_user()
        assert not single.exclusions
        assert cross.exclusions == rule_set.exclusions
        for rule in single.forcing_rules:
            slots = {i.slot for i in rule.antecedent} | {rule.consequent.slot}
            assert slots <= {"u1", "amb"}
        for rule in cross.forcing_rules:
            slots = {i.slot for i in rule.antecedent if i.slot != "amb"}
            slots.add(rule.consequent.slot)
            assert len(slots) > 1
        # Every rule lands in exactly one bucket (mirrors deduplicated).
        assert len(cross.forcing_rules) <= len(rule_set.forcing_rules)

    def test_merge_with_initial_rules(self, rule_set):
        merged = rule_set.merge(initial_rule_set())
        assert merged.n_rules >= rule_set.n_rules


class TestInitialRules:
    def test_table_iv_rules_shape(self):
        rules = table_iv_rules()
        assert len(rules) == 10  # 5 per user slot
        assert all(r.confidence == 1.0 for r in rules)

    def test_initial_rule_set_consistency_checks(self):
        rs = initial_rule_set()
        bad = frozenset(
            [_item("u1", "subloc", "SR9"), _item("u2", "subloc", "SR9")]
        )
        assert not is_consistent(rs, bad)
        good = frozenset([_item("u1", "subloc", "SR9")])
        assert is_consistent(rs, good)

    def test_cycling_in_sr1_forces_exercising(self):
        rs = initial_rule_set()
        violating = frozenset(
            [
                _item("u1", "posture", "cycling"),
                _item("u1", "subloc", "SR1"),
                _item("u1", "macro", "dining"),
            ]
        )
        assert not is_consistent(rs, violating)


class TestConstraintMiner:
    def test_tables_are_distributions(self, constraint_model):
        cm = constraint_model
        assert np.allclose(cm.macro_prior.sum(), 1.0)
        assert np.allclose(cm.macro_occupancy.sum(), 1.0)
        assert np.allclose(cm.macro_trans_coupled.sum(axis=2), 1.0)
        assert np.allclose(cm.subloc_prior.sum(axis=1), 1.0)
        assert np.allclose(cm.subloc_trans.sum(axis=2), 1.0)
        assert cm.gesture_occupancy is not None
        for occupancy in (cm.posture_occupancy, cm.gesture_occupancy, cm.subloc_occupancy):
            assert np.allclose(occupancy.sum(axis=1), 1.0)

    def test_end_probabilities_bounded(self, constraint_model):
        cm = constraint_model
        assert np.all(cm.macro_end_prob > 0) and np.all(cm.macro_end_prob < 1)
        assert np.all(cm.micro_end_prob > 0) and np.all(cm.micro_end_prob < 1)

    def test_blocking_semantics_in_counts(self, constraint_model, cace_split):
        # Macro segments span many steps, so a macro the training split
        # visits continues far more often than it ends.  Unvisited macros
        # keep the smoothing prior's even split and are excluded.
        cm = constraint_model
        train, _ = cace_split
        visited = sorted(
            {
                cm.macro_index.index(truth[rid].macro)
                for seq in train.sequences
                for truth in seq.truths
                for rid in seq.resident_ids
            }
        )
        assert visited
        assert np.mean(1.0 - cm.macro_end_prob[visited]) > 0.7

    def test_exercising_location_prior_peaks_at_sr1(self, constraint_model):
        cm = constraint_model
        m = cm.macro_index.index("exercising")
        top = cm.subloc_index.label(int(np.argmax(cm.subloc_prior[m])))
        assert top == "SR1"
