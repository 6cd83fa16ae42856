"""Area motion sensors with sub-location granularity (CASAS-style).

The WSU CASAS apartment is instrumented with a dense grid of downward-facing
motion detectors (M01-M26), each covering roughly one functional area.  The
paper maps them onto its own vocabulary: "we consider each motion sensor
firing means the sub-location is occupied that is covered by motion sensor
range" (§VII-C).  An :class:`AreaMotionSensor` therefore covers one
sub-region and fires when *someone* — never a named resident — is active
inside it.

This channel is deliberately separate from the room-level
:class:`~repro.sensors.pir.PirSensor` fleet: the CACE testbed has one PIR
per room (coarse), the CASAS testbed has per-area coverage (fine), and the
two corpora exercise the recognisers under exactly that difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_non_negative, check_probability


@dataclass
class AreaMotionSensor:
    """A ceiling motion detector covering one sub-region.

    Parameters
    ----------
    sensor_id:
        Unique identifier, e.g. ``"motion:SR4"``.
    sub_region:
        Sub-region id (``"SR1"`` .. ``"SR14"``) the sensor covers.
    detect_prob:
        Probability a moving occupant inside the area triggers the sensor in
        one polling tick.
    stationary_detect_prob:
        Probability a stationary occupant still triggers it.  Downward-facing
        area detectors catch hand and torso movement of seated subjects far
        more often than wall-mounted room PIRs do, hence the higher default.
    false_alarm_prob:
        Probability of firing with nobody in the area.
    refractory_s:
        Hardware hold-off between firings.
    """

    sensor_id: str
    sub_region: str
    detect_prob: float = 0.92
    stationary_detect_prob: float = 0.3
    false_alarm_prob: float = 0.001
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
        """Poll at time *t* given the occupant counts inside the area."""
        if t - self._last_fire < self.refractory_s:
            return False
        fire = False
        if occupants_moving > 0:
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
        """Clear refractory state before a new simulation run."""
        self._last_fire = -np.inf
