"""Correlation mining: deterministic must / must-not relationships (§V-B).

Runs Apriori over context transactions and distils two deterministic
structures used to prune the coupled model's joint state space:

* **forcing rules** — high-confidence association rules whose consequent is
  a hidden attribute at time t (e.g. ``U1:posture=cycling & U1:subloc=SR1
  => U1:macro=exercising``): a joint state hypothesis that fires a rule's
  antecedent but contradicts its consequent is infeasible;
* **exclusion rules** — two users in the same sub-location, each frequent,
  that *never* co-occur despite ample expected opportunity (both residents
  in the single-occupancy bathroom): any joint state containing both is
  pruned.

Inference does not read the rules one by one: each recogniser compiles
its rule set into the grid tables of :mod:`repro.core.rule_kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.datasets.trace import LabeledSequence
from repro.mining.apriori import Apriori, FrequentItemsets
from repro.mining.context_rules import Item, encode_dataset
from repro.mining.rules import AssociationRule, ExclusionRule, merge_redundant

#: Consequent attributes worth forcing (hidden state components).
HIDDEN_ATTRS: Tuple[str, ...] = ("macro", "subloc")
#: An exclusion is only claimed when the two elements were expected to
#: co-occur at least this many times under independence — guards against
#: declaring "must not" from sparse data.
MIN_EXPECTED_COOCCURRENCE = 10.0


@dataclass
class CorrelationRuleSet:
    """Mined deterministic correlations: forcing rules and exclusions.

    Recognisers prune with them through the compiled pruners of
    :mod:`repro.core.rule_kernel`; the seed's item-set check is
    ``decode_spec.is_consistent`` in the tests.
    """

    forcing_rules: List[AssociationRule] = field(default_factory=list)
    exclusions: List[ExclusionRule] = field(default_factory=list)

    @property
    def n_rules(self) -> int:
        """Total rule count (forcing + exclusion)."""
        return len(self.forcing_rules) + len(self.exclusions)

    def single_user(self) -> "CorrelationRuleSet":
        """Rules involving a single user slot (plus ambient context).

        Used both for per-user state pruning and by the NCR strategy, which
        must not see any cross-user relationship.  Rules phrased on other
        user slots (symmetrised mirrors) are canonicalised to ``u1`` and
        deduplicated.
        """

        def _canon(item: Item) -> Item:
            return Item("u1", item.time, item.attr, item.value) if item.slot != "amb" else item

        seen = set()
        forcing = []
        for rule in self.forcing_rules:
            user_slots = {i.slot for i in rule.antecedent if i.slot != "amb"} | {
                rule.consequent.slot
            }
            user_slots.discard("amb")
            if len(user_slots) != 1:
                continue
            canonical = AssociationRule(
                antecedent=frozenset(_canon(i) for i in rule.antecedent),
                consequent=_canon(rule.consequent),
                support=rule.support,
                confidence=rule.confidence,
            )
            key = (canonical.antecedent, canonical.consequent)
            if key not in seen:
                seen.add(key)
                forcing.append(canonical)
        return CorrelationRuleSet(forcing_rules=forcing, exclusions=[])

    def cross_user(self) -> "CorrelationRuleSet":
        """Rules that relate different user slots (plus all exclusions)."""
        forcing = [
            r
            for r in self.forcing_rules
            if len({i.slot for i in r.antecedent if i.slot != "amb"} | {r.consequent.slot}) > 1
        ]
        return CorrelationRuleSet(forcing_rules=forcing, exclusions=list(self.exclusions))

    def merge(self, other: "CorrelationRuleSet") -> "CorrelationRuleSet":
        """Union of two rule sets (used to add user-supplied initial rules)."""
        seen_f = {(r.antecedent, r.consequent) for r in self.forcing_rules}
        forcing = list(self.forcing_rules)
        for rule in other.forcing_rules:
            if (rule.antecedent, rule.consequent) not in seen_f:
                forcing.append(rule)
        seen_e = {frozenset((e.a, e.b)) for e in self.exclusions}
        exclusions = list(self.exclusions)
        for excl in other.exclusions:
            if frozenset((excl.a, excl.b)) not in seen_e:
                exclusions.append(excl)
        return CorrelationRuleSet(forcing_rules=forcing, exclusions=exclusions)

    def describe(self, limit: Optional[int] = None) -> str:
        """Human-readable rule dump (Table IV style)."""
        lines = [str(r) for r in self.forcing_rules]
        lines.extend(str(e) for e in self.exclusions)
        if limit is not None:
            lines = lines[:limit]
        return "\n".join(lines)


@dataclass
class CorrelationMiner:
    """Mines a :class:`CorrelationRuleSet` from labelled sequences.

    Parameters
    ----------
    min_support / min_confidence:
        Apriori thresholds; the paper's operating point is 4% / 99%.
    """

    min_support: float = 0.04
    min_confidence: float = 0.99

    def mine(self, sequences: Sequence[LabeledSequence]) -> CorrelationRuleSet:
        """Run the full pipeline: encode, Apriori, filter, index."""
        return self.mine_transactions(encode_dataset(sequences))

    def mine_transactions(
        self, transactions: Sequence[FrozenSet[Item]]
    ) -> CorrelationRuleSet:
        """Mine from pre-encoded transactions."""
        apriori = Apriori(min_support=self.min_support, min_confidence=self.min_confidence)
        itemsets = apriori.mine_itemsets(transactions)
        raw_rules = apriori.mine_rules(itemsets, consequent_attrs=HIDDEN_ATTRS)
        forcing = merge_redundant(self._filter_forcing(raw_rules))
        exclusions = self._mine_exclusions(itemsets)
        return CorrelationRuleSet(forcing_rules=forcing, exclusions=exclusions)

    # -- filters --------------------------------------------------------------------

    def _filter_forcing(self, rules: Iterable[AssociationRule]) -> List[AssociationRule]:
        """Keep same-time rules usable for state pruning.

        The antecedent must live entirely in the current slice and concern a
        single user (plus optionally ambient evidence); the consequent must
        be a hidden attribute of a user at time t.  Rules whose antecedent
        already contains the consequent's attribute are tautological.
        """
        kept: List[AssociationRule] = []
        for rule in rules:
            if rule.consequent.time != "t" or rule.consequent.slot == "amb":
                continue
            if any(item.time != "t" for item in rule.antecedent):
                continue
            ant_attrs = {
                (item.slot, item.attr) for item in rule.antecedent if item.slot != "amb"
            }
            if (rule.consequent.slot, rule.consequent.attr) in ant_attrs:
                continue
            # Room items duplicate sub-location information; a rule whose
            # antecedent is only the enclosing room of the consequent is
            # uninformative for pruning.
            if all(item.attr == "room" for item in rule.antecedent):
                continue
            kept.append(rule)
        return kept

    def _mine_exclusions(self, itemsets: FrequentItemsets) -> List[ExclusionRule]:
        """Frequent same-sub-location pairs on two user slots that never
        co-occur (the "two people in one bathroom" shape).  Two macros
        never seen together are behaviour, not physics, and are not mined.

        Co-occurrences are looked up in Apriori's pair counts."""
        n = itemsets.n_transactions
        singles = {next(iter(s)): sup for s, sup in itemsets.supports.items() if len(s) == 1}
        items = [
            i for i in singles if i.slot.startswith("u") and i.time == "t" and i.attr == "subloc"
        ]
        candidates: List[Tuple[Item, Item]] = []
        for i, a in enumerate(items):
            for b in items[i + 1 :]:
                if a.slot == b.slot or a.value != b.value:
                    continue
                if singles[a] * singles[b] * n < MIN_EXPECTED_COOCCURRENCE:
                    continue
                candidates.append((a, b))
        # "A => not B" holds at the miner's confidence level when the
        # observed co-occurrence rate P(B | A) stays below 1 - minConf.
        # Requiring literally zero co-occurrences is brittle: a single
        # mislabelled step (or a hand-off through a doorway) would erase a
        # true exclusion such as the single-occupancy bathroom.
        tolerance = 1.0 - self.min_confidence
        exclusions = []
        for a, b in candidates:
            occurrences = min(singles[a], singles[b]) * n
            if itemsets.co_occurrences(a, b) <= tolerance * occurrences:
                exclusions.append(
                    ExclusionRule(a=a, b=b, support_a=singles[a], support_b=singles[b])
                )
        return exclusions
