"""Binary passive-infrared (PIR) motion sensors.

The testbed deploys one PIR per room; a firing means "this room currently
contains at least one *moving* person" — crucially it cannot attribute the
motion to a specific resident, which is the identity-ambiguity problem CACE's
coupled model resolves.  The simulation models detection probability,
stationary-subject misses, a refractory hold-off, and rare false alarms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_non_negative, check_probability


@dataclass
class PirSensor:
    """A single binary PIR covering one room.

    Parameters
    ----------
    sensor_id:
        Unique identifier, e.g. ``"pir:livingroom"``.
    room:
        Room name the sensor covers.
    detect_prob:
        Probability a moving occupant triggers the sensor in a polling tick.
    stationary_detect_prob:
        Probability a stationary occupant still triggers it (PIRs mostly
        miss non-moving subjects; a small value models residual flicker).
    false_alarm_prob:
        Probability of firing in an empty room (thermal noise, pets, sun).
    refractory_s:
        Minimum spacing between firings (hardware hold-off).
    """

    sensor_id: str
    room: str
    detect_prob: float = 0.95
    stationary_detect_prob: float = 0.15
    false_alarm_prob: float = 0.002
    refractory_s: float = 1.0
    seed: RandomState = None
    _rng: np.random.Generator = field(init=False, repr=False)
    _last_fire: float = field(default=-np.inf, init=False, repr=False)

    def __post_init__(self) -> None:
        check_probability("detect_prob", self.detect_prob)
        check_probability("stationary_detect_prob", self.stationary_detect_prob)
        check_probability("false_alarm_prob", self.false_alarm_prob)
        check_non_negative("refractory_s", self.refractory_s)
        self._rng = ensure_rng(self.seed)

    def poll(self, t: float, occupants_moving: int, occupants_still: int = 0) -> Optional[bool]:
        """Poll the sensor at time *t*; returns True on a firing, else False.

        *occupants_moving* / *occupants_still* count people currently in the
        covered room.  During the refractory window the sensor is silent.
        """
        if t - self._last_fire < self.refractory_s:
            return False
        fire = False
        if occupants_moving > 0:
            # Independent detection chance per moving occupant.
            miss = (1.0 - self.detect_prob) ** occupants_moving
            fire = self._rng.random() > miss
        if not fire and occupants_still > 0:
            miss = (1.0 - self.stationary_detect_prob) ** occupants_still
            fire = self._rng.random() > miss
        if not fire and occupants_moving == 0 and occupants_still == 0:
            fire = self._rng.random() < self.false_alarm_prob
        if fire:
            self._last_fire = t
        return fire

    def reset(self) -> None:
        """Clear the refractory state (new simulation run)."""
        self._last_fire = -np.inf
