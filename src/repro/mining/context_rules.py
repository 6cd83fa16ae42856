"""Encoding context steps as transactions over discrete items.

The paper's transaction schema: "each context tuple consists of 94 context
elements (47 for current time t and 47 for the previous time instant t-1)"
— per user: 11 macro activities, 14 sub-locations, 6 rooms, 5 postural and
5 gestural states, plus 6 instrumented-object classes (47 elements per
slice in our accounting; the paper does not break the 47 down exactly).

An :class:`Item` is ``(slot, time, attr, value)`` where ``slot`` is a
canonical user slot (``"u1"``, ``"u2"``, ... by resident order, or
``"amb"`` for unattributed ambient context) and ``time`` is ``"t"`` or
``"t-1"``.  Transactions are symmetrised over user slots so mined rules
generalise across which resident happens to be "user 1".

:func:`encode_sequence` encodes only the 47 time-t elements, one
transaction per step and slot assignment.  The correlation miner keeps
only same-time rules (temporal structure is the constraint miner's), and
its rules are provably those of the two-slice schema: a time-t itemset's
support and Apriori candidates do not depend on the t-1 items, dropping
items keeps the sorted order of the itemsets that remain, and every rule
lost holds a t-1 item, which the miner drops.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.datasets.trace import LabeledSequence, ResidentTruth


class Item(NamedTuple):
    """One boolean context element inside a transaction."""

    slot: str  # "u1", "u2", ... or "amb"
    time: str  # "t" or "t-1"
    attr: str  # "macro" | "posture" | "gesture" | "subloc" | "room" | "object"
    value: str


def state_items(
    slot: str,
    macro: str,
    posture: str,
    gesture: Optional[str],
    subloc: str,
    room: str,
) -> List[Item]:
    """Items for a hidden state at time t (a hypothesis during pruning)."""
    items = [
        Item(slot, "t", "macro", macro),
        Item(slot, "t", "posture", posture),
        Item(slot, "t", "subloc", subloc),
        Item(slot, "t", "room", room),
    ]
    if gesture:
        items.append(Item(slot, "t", "gesture", gesture))
    return items


def truth_items(slot: str, truth: ResidentTruth) -> List[Item]:
    """Items describing one resident's ground-truth context at time t."""
    return state_items(slot, truth.macro, truth.posture, truth.gesture, truth.subloc, truth.room)


def ambient_items(rooms_fired: Sequence[str], objects_fired: Sequence[str]) -> List[Item]:
    """Items for unattributed ambient evidence at time t."""
    items = [Item("amb", "t", "room", room) for room in sorted(rooms_fired)]
    items.extend(Item("amb", "t", "object", obj) for obj in sorted(objects_fired))
    return items


def encode_sequence(sequence: LabeledSequence) -> List[FrozenSet[Item]]:
    """All transactions of a labelled sequence.

    Every step is emitted once per permutation of user-slot assignment, so
    rules do not overfit to which resident was mapped to ``u1``.

    A transaction holds every resident's time-t items plus the step's
    ambient items.  Residents hold the same truth for many steps in a row,
    so their items are memoised per ``(slot, truth)`` within the sequence,
    and a step's ambient items are built once for all of its assignments.
    """
    assignments = [
        {rid: f"u{i + 1}" for i, rid in enumerate(perm)}
        for perm in permutations(sequence.resident_ids)
    ]

    memo: Dict[Tuple[str, ResidentTruth], List[Item]] = {}

    def resident(slot: str, truth: ResidentTruth) -> List[Item]:
        items = memo.get((slot, truth))
        if items is None:
            items = memo[slot, truth] = truth_items(slot, truth)
        return items

    transactions: List[FrozenSet[Item]] = []
    for step, truth in zip(sequence.steps, sequence.truths):
        ambient = ambient_items(step.rooms_fired, step.objects_fired)
        for slot_of in assignments:
            items = list(ambient)
            for rid, now in truth.items():
                items += resident(slot_of[rid], now)
            transactions.append(frozenset(items))
    return transactions


def encode_dataset(sequences: Sequence[LabeledSequence]) -> List[FrozenSet[Item]]:
    """Symmetrised transactions pooled over many sequences."""
    out: List[FrozenSet[Item]] = []
    for seq in sequences:
        out.extend(encode_sequence(seq))
    return out


def format_item(item: Item) -> str:
    """Human-readable item, e.g. ``U1(t):subloc=SR4``."""
    slot = item.slot.upper()
    return f"{slot}({item.time}):{item.attr}={item.value}"
