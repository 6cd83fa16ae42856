"""Unified sensor event stream — the Ethernet-tag-manager analogue.

Every ambient sensor reading in a simulation becomes a :class:`SensorEvent`;
:class:`EventStream` stores them time-ordered and supports the windowed
queries the context pipeline needs ("which rooms fired PIR in [t, t+w)?").
:class:`TagManager` models the radio hop: per-event loss and latency jitter
before events reach the stream, which exercises the missing-sensor-value
robustness path the paper motivates.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Set

import numpy as np

from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_non_negative, check_probability


@dataclass(frozen=True, order=True)
class SensorEvent:
    """One timestamped sensor reading.

    ``kind`` is one of ``"pir"``, ``"object"``, ``"beacon"``, ``"imu_frame"``;
    ``value`` is kind-specific (room name, object name, sub-region, ...).
    """

    t: float
    kind: str
    sensor_id: str
    value: str
    payload: Optional[tuple] = None


class EventStream:
    """Time-ordered container of :class:`SensorEvent` with window queries."""

    def __init__(self, events: Optional[Iterable[SensorEvent]] = None) -> None:
        self._events: List[SensorEvent] = sorted(events) if events else []
        self._times: List[float] = [e.t for e in self._events]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SensorEvent]:
        return iter(self._events)

    def append(self, event: SensorEvent) -> None:
        """Insert an event, preserving time order."""
        idx = bisect.bisect_right(self._times, event.t)
        self._events.insert(idx, event)
        self._times.insert(idx, event.t)

    def extend(self, events: Iterable[SensorEvent]) -> None:
        """Insert many events."""
        for event in events:
            self.append(event)

    def window(self, start: float, end: float) -> List[SensorEvent]:
        """Events with ``start <= t < end``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return self._events[lo:hi]

    def values_in_window(self, kind: str, start: float, end: float) -> Set[str]:
        """Distinct ``value`` strings of *kind* events inside the window."""
        return {e.value for e in self.window(start, end) if e.kind == kind}

    @property
    def span(self) -> tuple:
        """``(first_t, last_t)`` of the stream (0, 0 when empty)."""
        if not self._events:
            return (0.0, 0.0)
        return (self._times[0], self._times[-1])


@dataclass
class TagManager:
    """Radio hop between sensors and the event stream.

    Applies independent per-event loss and Gaussian latency jitter, modelling
    the testbed's wireless tag manager; lost events simply never arrive,
    which is how missing sensor values enter the pipeline.
    """

    stream: EventStream = field(default_factory=EventStream)
    loss_prob: float = 0.01
    latency_std_s: float = 0.05
    seed: RandomState = None
    _rng: np.random.Generator = field(init=False, repr=False)
    dropped: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_probability("loss_prob", self.loss_prob)
        check_non_negative("latency_std_s", self.latency_std_s)
        self._rng = ensure_rng(self.seed)

    def deliver(self, event: SensorEvent) -> bool:
        """Attempt delivery; returns False when the event is lost."""
        if self._rng.random() < self.loss_prob:
            self.dropped += 1
            return False
        jitter = abs(self._rng.normal(0.0, self.latency_std_s))
        delivered = SensorEvent(
            t=event.t + jitter,
            kind=event.kind,
            sensor_id=event.sensor_id,
            value=event.value,
            payload=event.payload,
        )
        self.stream.append(delivered)
        return True
