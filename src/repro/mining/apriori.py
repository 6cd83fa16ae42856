"""Apriori frequent-itemset mining and rule generation.

Implements Apriori (paper §V-A) at a fixed depth of three levels with a
numpy counting core.  Transactions become a boolean incidence matrix:

* L1 is its column sums;
* L2 is one product over the frequent columns;
* L3 is one product per frequent item ``a``: the rows containing ``a``,
  restricted to ``a``'s frequent partners ``b > a``, times those rows.
  Entry ``(b, j)`` counts the transactions holding ``{a, b, j}``; a triple
  is a candidate only when all three of its pairs are frequent.

The incidence matrix is filled by one fancy-index assignment.  The L2
product's counts are kept, so callers can look up how often any two
frequent items co-occur without recounting.

The depth is three because the paper's rules have two antecedent elements
and one consequent, so no rule needs a larger itemset.  Itemsets are
emitted level by level in lexicographic order of their sorted item
indices, which fixes the order of the mined rules.  The paper's operating
point — ``minSup = 4%``, ``minConf = 99%`` — is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.mining.context_rules import Item
from repro.mining.rules import AssociationRule
from repro.util.validation import check_probability


@dataclass
class FrequentItemsets:
    """Mining result: itemset -> support (fraction of transactions).

    ``pair_counts[i, j]`` is the number of transactions holding both
    frequent single items ``i`` and ``j``, numbered by ``frequent_index``.
    """

    supports: Dict[FrozenSet[Item], float]
    n_transactions: int
    pair_counts: np.ndarray = field(repr=False)
    frequent_index: Dict[Item, int] = field(repr=False)

    def support(self, itemset: FrozenSet[Item]) -> float:
        """Support of *itemset* (0.0 when not frequent)."""
        return self.supports.get(itemset, 0.0)

    def co_occurrences(self, a: Item, b: Item) -> int:
        """Transactions holding both frequent single items *a* and *b*."""
        return int(self.pair_counts[self.frequent_index[a], self.frequent_index[b]])


@dataclass
class Apriori:
    """Frequent-itemset miner for itemsets of up to three items.

    Parameters
    ----------
    min_support:
        Minimum fraction of transactions containing the itemset (paper: 4%).
        An itemset must occur at least once to be frequent, also at 0.
    min_confidence:
        Minimum rule confidence (paper: 99%).
    """

    min_support: float = 0.04
    min_confidence: float = 0.99

    def __post_init__(self) -> None:
        check_probability("min_support", self.min_support)
        check_probability("min_confidence", self.min_confidence)

    # -- frequent itemsets ------------------------------------------------------

    def mine_itemsets(self, transactions: Sequence[FrozenSet[Item]]) -> FrequentItemsets:
        """Find all frequent itemsets of one, two and three items."""
        n = len(transactions)
        if n == 0:
            raise ValueError("cannot mine an empty transaction list")

        # Build the item universe and boolean incidence matrix.
        universe: List[Item] = sorted({item for t in transactions for item in t})
        index = {item: i for i, item in enumerate(universe)}
        sizes = [len(t) for t in transactions]
        cols = np.fromiter(
            (index[item] for t in transactions for item in t), dtype=np.intp, count=sum(sizes)
        )
        incidence = np.zeros((n, len(universe)), dtype=bool)
        incidence[np.repeat(np.arange(n), sizes), cols] = True

        min_count = max(self.min_support * n, 1)
        supports: Dict[FrozenSet[Item], float] = {}

        # L1.
        counts1 = incidence.sum(axis=0)
        frequent1 = np.flatnonzero(counts1 >= min_count)
        items = [universe[i] for i in frequent1]
        for i, item in zip(frequent1, items):
            supports[frozenset([item])] = counts1[i] / n

        # L2 via one matrix product over the frequent-item columns.
        sub = incidence[:, frequent1]
        sub_f = sub.astype(np.float64)
        pair_counts = (sub_f.T @ sub_f).astype(np.int64)
        frequent2 = np.triu(pair_counts >= min_count, k=1)
        a2, b2 = np.nonzero(frequent2)
        for a, b, support in zip(a2.tolist(), b2.tolist(), pair_counts[a2, b2] / n):
            supports[frozenset([items[a], items[b]])] = support

        # L3: one product per first item over the rows that contain it.
        for a in range(len(items)):
            partners = np.flatnonzero(frequent2[a])
            if len(partners) < 2:
                continue
            rows = sub_f[sub[:, a]]
            # (b, j) is a candidate when j > b and {a, j}, {b, j} are
            # frequent, so only the columns after the first partner count.
            lo = partners[0] + 1
            counts3 = (rows[:, partners].T @ rows[:, lo:]).astype(np.int64)
            keep = frequent2[partners, lo:] & frequent2[a, lo:] & (counts3 >= min_count)
            k3, j3 = np.nonzero(keep)
            for b, j, support in zip(
                partners[k3].tolist(), (j3 + lo).tolist(), counts3[k3, j3] / n
            ):
                supports[frozenset([items[a], items[b], items[j]])] = support

        return FrequentItemsets(
            supports=supports,
            n_transactions=n,
            pair_counts=pair_counts,
            frequent_index={item: i for i, item in enumerate(items)},
        )

    # -- rules ---------------------------------------------------------------------

    def mine_rules(
        self,
        itemsets: FrequentItemsets,
        consequent_attrs: Tuple[str, ...] = ("macro",),
    ) -> List[AssociationRule]:
        """Rules from *itemsets* whose consequent attribute is in
        *consequent_attrs*.

        Every frequent itemset of size >= 2 yields candidate rules with a
        single-item consequent; rules below :attr:`min_confidence` are
        discarded.  Rules come in itemset order and, within an itemset, in
        sorted consequent order, so the list does not depend on how the
        process hashes strings.
        """
        rules: List[AssociationRule] = []
        for itemset, support in itemsets.supports.items():
            if len(itemset) < 2:
                continue
            heads = sorted(item for item in itemset if item.attr in consequent_attrs)
            for consequent in heads:
                antecedent = frozenset(itemset - {consequent})
                ant_support = itemsets.support(antecedent)
                if ant_support <= 0:
                    continue
                confidence = support / ant_support
                if confidence >= self.min_confidence:
                    rules.append(
                        AssociationRule(
                            antecedent=antecedent,
                            consequent=consequent,
                            support=support,
                            confidence=min(confidence, 1.0),
                        )
                    )
        return rules
