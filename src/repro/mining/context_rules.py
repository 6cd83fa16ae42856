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

:func:`encode_sequence` defines the transactions: one per step and slot
assignment, holding every resident's items at t and t-1 plus the step's
ambient items.  It builds them from a memo: one item list per ``(slot,
time, truth)`` seen in the sequence, and one ambient item list per step,
shared by all of the step's slot assignments.
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


def truth_items(slot: str, truth: ResidentTruth, time: str = "t") -> List[Item]:
    """Items describing one resident's ground-truth context."""
    items = [
        Item(slot, time, "macro", truth.macro),
        Item(slot, time, "posture", truth.posture),
        Item(slot, time, "subloc", truth.subloc),
        Item(slot, time, "room", truth.room),
    ]
    if truth.gesture:
        items.append(Item(slot, time, "gesture", truth.gesture))
    return items


def state_items(
    slot: str,
    macro: str,
    posture: str,
    gesture: Optional[str],
    subloc: str,
    room: str,
    time: str = "t",
) -> List[Item]:
    """Items for a *hypothesised* hidden state (used during pruning)."""
    items = [
        Item(slot, time, "macro", macro),
        Item(slot, time, "posture", posture),
        Item(slot, time, "subloc", subloc),
        Item(slot, time, "room", room),
    ]
    if gesture:
        items.append(Item(slot, time, "gesture", gesture))
    return items


def ambient_items(
    rooms_fired: Sequence[str], objects_fired: Sequence[str], time: str = "t"
) -> List[Item]:
    """Items for unattributed ambient evidence."""
    items = [Item("amb", time, "room", room) for room in sorted(rooms_fired)]
    items.extend(Item("amb", time, "object", obj) for obj in sorted(objects_fired))
    return items


def encode_sequence(
    sequence: LabeledSequence, symmetrize: bool = True
) -> List[FrozenSet[Item]]:
    """All transactions of a labelled sequence.

    With ``symmetrize=True`` every step is emitted once per permutation of
    user-slot assignment, so rules do not overfit to which resident was
    mapped to ``u1``.

    A transaction holds both time slices of every resident plus the
    step's ambient items.  Residents hold the same truth for many steps in
    a row, so their items are memoised per ``(slot, time, truth)`` within
    the sequence, and a step's ambient items are built once for all of its
    assignments.
    """
    rids = list(sequence.resident_ids)
    slot_names = [f"u{i + 1}" for i in range(len(rids))]
    assignments: List[Dict[str, str]] = []
    if symmetrize and len(rids) > 1:
        for perm in permutations(rids):
            assignments.append({rid: slot_names[i] for i, rid in enumerate(perm)})
    else:
        assignments.append({rid: slot_names[i] for i, rid in enumerate(rids)})

    memo: Dict[Tuple[str, str, ResidentTruth], List[Item]] = {}

    def resident(slot: str, truth: ResidentTruth, time: str) -> List[Item]:
        key = (slot, time, truth)
        items = memo.get(key)
        if items is None:
            items = memo[key] = truth_items(slot, truth, time)
        return items

    transactions: List[FrozenSet[Item]] = []
    prev = None
    for step, truth in zip(sequence.steps, sequence.truths):
        ambient = ambient_items(step.rooms_fired, step.objects_fired, "t")
        for slot_of in assignments:
            items = list(ambient)
            for rid, now in truth.items():
                items += resident(slot_of[rid], now, "t")
            if prev is not None:
                for rid, before in prev.items():
                    items += resident(slot_of[rid], before, "t-1")
            transactions.append(frozenset(items))
        prev = truth
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
