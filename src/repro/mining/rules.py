"""Association and exclusion rules with support / confidence semantics.

A :class:`AssociationRule` ``<c1, ..., cn => R>`` asserts R holds whenever
all antecedent elements hold (paper §V-A); its quality is measured by
*support* (fraction of transactions containing antecedent and consequent)
and *confidence* (support / antecedent support).  An :class:`ExclusionRule`
captures deterministic *must-not* correlations — two frequent elements that
never co-occur (e.g. both residents in the single bathroom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List

from repro.mining.context_rules import Item, format_item


@dataclass(frozen=True)
class AssociationRule:
    """``antecedent => consequent`` with mined quality measures."""

    antecedent: FrozenSet[Item]
    consequent: Item
    support: float
    confidence: float

    def __str__(self) -> str:
        lhs = " & ".join(sorted(format_item(i) for i in self.antecedent))
        return f"{lhs} => {format_item(self.consequent)} (sup={self.support:.3f}, conf={self.confidence:.2f})"


@dataclass(frozen=True)
class ExclusionRule:
    """Two context elements that must not hold simultaneously; a joint
    state containing both is pruned."""

    a: Item
    b: Item
    support_a: float
    support_b: float

    def __str__(self) -> str:
        return (
            f"{format_item(self.a)} => NOT {format_item(self.b)} "
            f"(sup {self.support_a:.3f}/{self.support_b:.3f})"
        )


def merge_redundant(rules: Iterable[AssociationRule]) -> List[AssociationRule]:
    """Drop rules implied by a more general rule with the same consequent.

    The paper merges "redundant (e.g., transitive) rules" before deploying
    them (47 final rules on CASAS).  A rule ``A => c`` is redundant when
    some kept rule ``B => c`` exists with ``B`` a proper subset of ``A`` and
    confidence at least as high.
    """
    by_consequent: dict = {}
    for rule in rules:
        by_consequent.setdefault(rule.consequent, []).append(rule)

    kept: List[AssociationRule] = []
    for group in by_consequent.values():
        # Most general (smallest antecedent), then most confident, first.
        group = sorted(group, key=lambda r: (len(r.antecedent), -r.confidence))
        chosen: List[AssociationRule] = []
        for rule in group:
            dominated = any(
                other.antecedent < rule.antecedent and other.confidence >= rule.confidence
                for other in chosen
            )
            if not dominated:
                chosen.append(rule)
        kept.extend(chosen)
    return kept
