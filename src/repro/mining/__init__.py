"""Context mining: association rules, correlations, constraints (§V).

The pipeline's "pruning engine".  The paper encodes training traces as
transactions over 94 context elements (47 per time slice, two slices).
The correlation miner keeps only same-time rules, so it encodes the 47
time-t elements, which provably mines the same rules; the temporal
structure is the constraint miner's.  Apriori extracts high-confidence
association rules, and two miners distil them into the structures the
loosely-coupled HDBN consumes —

* :class:`~repro.mining.correlation_miner.CorrelationRuleSet` —
  deterministic *must / must-not* relationships used to prune joint states;
* :class:`~repro.mining.constraint_miner.ConstraintModel` — probabilistic
  end-of-sequence and transition statistics implementing the blocking /
  termination semantics (Eqns 3-6).
"""

from repro.mining.apriori import Apriori, FrequentItemsets
from repro.mining.constraint_miner import ConstraintMiner, ConstraintModel
from repro.mining.context_rules import (
    Item,
    encode_sequence,
    state_items,
)
from repro.mining.correlation_miner import CorrelationMiner, CorrelationRuleSet
from repro.mining.initial_rules import initial_rule_set, table_iv_rules
from repro.mining.rules import AssociationRule, ExclusionRule, merge_redundant

__all__ = [
    "Apriori",
    "FrequentItemsets",
    "ConstraintMiner",
    "ConstraintModel",
    "Item",
    "encode_sequence",
    "state_items",
    "CorrelationMiner",
    "CorrelationRuleSet",
    "initial_rule_set",
    "table_iv_rules",
    "AssociationRule",
    "ExclusionRule",
    "merge_redundant",
]
