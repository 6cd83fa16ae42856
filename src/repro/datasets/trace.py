"""Containers for discretised, labelled multi-inhabitant sensor traces.

A session becomes a :class:`LabeledSequence`: per time step one
:class:`ContextStep` holding each resident's *observed* micro evidence
(noisy wearable classifications + emission feature vector + iBeacon
sub-location candidates) and the unattributed ambient context (rooms and
objects that fired), alongside per-resident ground truth for training and
scoring.  A :class:`Dataset` bundles sequences with the label vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.util.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class ResidentTruth:
    """Ground-truth context of one resident at one step."""

    macro: str
    posture: str
    gesture: str
    subloc: str
    room: str


@dataclass(frozen=True)
class ResidentObservation:
    """Observed (noisy) micro evidence for one resident at one step.

    ``gesture`` is None when the resident wears no neck tag (CASAS mode).
    ``features`` is the continuous emission vector used by the Gaussian
    observation models (Augmentation 4).
    ``subloc_candidates`` is the iBeacon/ambient-derived candidate set; the
    true sub-location is *usually* inside it, but not guaranteed.
    """

    posture: str
    gesture: Optional[str]
    features: Tuple[float, ...]
    subloc_candidates: Tuple[str, ...]
    position_estimate: Optional[Tuple[float, float]] = None


@dataclass(frozen=True)
class ContextStep:
    """One discretised time step of a multi-inhabitant session.

    ``sublocs_fired`` carries sub-location-granularity motion evidence where
    the deployment has it (the CASAS-style motion grid); it is empty for
    room-PIR-only homes.  Like the room and object channels it is
    *unattributed* — it says an area was occupied, never by whom.
    """

    t: float
    observations: Dict[str, ResidentObservation]
    rooms_fired: FrozenSet[str]
    objects_fired: FrozenSet[str]
    sublocs_fired: FrozenSet[str] = frozenset()


class StepWindow:
    """A per-step list indexed by absolute step whose oldest steps can be
    released, so a stream holds only the steps a later read can reach.

    ``w[t]`` (``t >= 0``), a contiguous slice ``w[a:b]``, ``len(w)`` (which
    counts the released steps too) and ``del w[a:]`` mean what they mean
    on a list holding every step; reading a released step raises
    :class:`IndexError` instead of returning another step's entry.
    """

    __slots__ = ("_items", "floor")

    def __init__(self) -> None:
        self._items: list = []
        #: First step still held; every step below it was released.
        self.floor = 0

    def __len__(self) -> int:
        return self.floor + len(self._items)

    def _bounds(self, key: slice) -> Tuple[int, int]:
        """``(start, stop)`` of a contiguous slice, checked against the floor."""
        if key.step not in (None, 1):
            raise ValueError("a StepWindow slice must be contiguous")
        start, stop, _ = key.indices(len(self))
        if start < self.floor and start < stop:
            raise IndexError(f"steps below {self.floor} were released (asked from {start})")
        return start - self.floor, stop - self.floor

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop = self._bounds(key)
            return self._items[start:stop] if start < stop else []
        if key < self.floor:
            raise IndexError(f"step {key} was released (window starts at {self.floor})")
        return self._items[key - self.floor]

    def __delitem__(self, key: slice) -> None:
        start, stop = self._bounds(key)
        if start < stop:
            del self._items[start:stop]

    def __iter__(self):
        if self.floor:
            raise IndexError(f"steps below {self.floor} were released")
        return iter(self._items)

    def append(self, item) -> None:
        self._items.append(item)

    def extend(self, items) -> None:
        self._items.extend(items)

    def clear(self) -> None:
        """Drop every step and restart at step 0."""
        self._items.clear()
        self.floor = 0

    def release(self, t: int) -> None:
        """Drop every step below *t*."""
        n = min(t, len(self)) - self.floor
        if n > 0:
            del self._items[:n]
            self.floor += n


@dataclass
class LabeledSequence:
    """A full session: steps plus aligned per-resident ground truth."""

    home_id: str
    resident_ids: Tuple[str, ...]
    step_s: float
    steps: List[ContextStep]
    truths: List[Dict[str, ResidentTruth]]

    def __post_init__(self) -> None:
        if len(self.steps) != len(self.truths):
            raise ValueError(
                f"steps ({len(self.steps)}) and truths ({len(self.truths)}) must align"
            )

    def __len__(self) -> int:
        return len(self.steps)

    def macro_labels(self, rid: str) -> List[str]:
        """Ground-truth macro activity sequence for one resident."""
        return [truth[rid].macro for truth in self.truths]

    def slice(self, start: int, end: int) -> "LabeledSequence":
        """Sub-sequence covering step indices ``[start, end)``."""
        return LabeledSequence(
            home_id=self.home_id,
            resident_ids=self.resident_ids,
            step_s=self.step_s,
            steps=self.steps[start:end],
            truths=self.truths[start:end],
        )


@dataclass
class Dataset:
    """A corpus of labelled sequences plus its vocabularies."""

    name: str
    sequences: List[LabeledSequence]
    macro_vocab: Tuple[str, ...]
    postural_vocab: Tuple[str, ...]
    gestural_vocab: Tuple[str, ...]
    subloc_vocab: Tuple[str, ...]
    has_gestural: bool = True
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def total_steps(self) -> int:
        """Total labelled steps across all sequences."""
        return sum(len(seq) for seq in self.sequences)

    def by_home(self) -> Dict[str, List[LabeledSequence]]:
        """Group sequences by home id."""
        out: Dict[str, List[LabeledSequence]] = {}
        for seq in self.sequences:
            out.setdefault(seq.home_id, []).append(seq)
        return out

    def subset(self, sequences: Sequence[LabeledSequence], suffix: str = "subset") -> "Dataset":
        """A new dataset sharing vocabularies but holding *sequences*."""
        return Dataset(
            name=f"{self.name}:{suffix}",
            sequences=list(sequences),
            macro_vocab=self.macro_vocab,
            postural_vocab=self.postural_vocab,
            gestural_vocab=self.gestural_vocab,
            subloc_vocab=self.subloc_vocab,
            has_gestural=self.has_gestural,
            metadata=dict(self.metadata),
        )


def train_test_split(
    dataset: Dataset, train_fraction: float = 0.7, seed: RandomState = None
) -> Tuple[Dataset, Dataset]:
    """Split a dataset by whole sequences (never within a session).

    Sequences are shuffled with *seed* then partitioned; each home
    contributes to both sides when it has >= 2 sequences.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = ensure_rng(seed)
    train: List[LabeledSequence] = []
    test: List[LabeledSequence] = []
    for _home, seqs in sorted(dataset.by_home().items()):
        order = list(seqs)
        rng.shuffle(order)
        cut = max(1, int(round(train_fraction * len(order))))
        if cut >= len(order) and len(order) > 1:
            cut = len(order) - 1
        train.extend(order[:cut])
        test.extend(order[cut:])
    return dataset.subset(train, "train"), dataset.subset(test, "test")
