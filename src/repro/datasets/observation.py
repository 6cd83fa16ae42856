"""Micro-level observation model: wearable classifier noise + emissions.

The macro-level experiments run on discretised context steps, not raw 50 Hz
IMU streams (a month of homes would be prohibitively slow to render sample
by sample).  This module supplies the calibrated bridge between the tiers:

* observed postures/gestures are drawn from confusion kernels whose
  diagonal mass matches the paper's *measured* micro-classifier accuracies
  (98.6% postural, 95.3% gestural, §VII-E) with physically sensible
  confusions (sitting<->standing, silent<->yawning, ...);
* the continuous emission vector per step is drawn from a Gaussian whose
  mean derives deterministically from the micro-activity's
  :class:`~repro.sensors.imu.MotionSignature` — the same parameters that
  drive the full IMU renderer — so Gaussian emission models (Augmentation 4)
  fit the same geometry they would see from real feature extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.sensors.imu import GESTURAL_SIGNATURES, POSTURAL_SIGNATURES, MotionSignature
from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_probability

#: Plausible misclassification targets per posture.
_POSTURE_CONFUSIONS: Dict[str, Tuple[str, ...]] = {
    "walking": ("standing", "cycling"),
    "standing": ("walking", "sitting"),
    "sitting": ("standing", "lying"),
    "cycling": ("walking",),
    "lying": ("sitting",),
}

#: Plausible misclassification targets per oral gesture.
_GESTURE_CONFUSIONS: Dict[str, Tuple[str, ...]] = {
    "silent": ("yawning",),
    "talking": ("laughing", "eating"),
    "eating": ("talking",),
    "yawning": ("silent",),
    "laughing": ("talking",),
}

#: Emission feature vector layout (6 dims).
FEATURE_NAMES: Tuple[str, ...] = (
    "phone_energy",
    "phone_freq",
    "neck_energy",
    "neck_freq",
    "tilt",
    "burst",
)


def _signature_mean(postural: MotionSignature, gestural: Optional[MotionSignature]) -> np.ndarray:
    """Deterministic mean emission vector for a (posture, gesture) pair."""
    phone_energy = float(np.linalg.norm(postural.amplitude))
    phone_freq = postural.base_freq_hz
    if gestural is not None:
        neck_energy = float(np.linalg.norm(gestural.amplitude))
        neck_freq = gestural.base_freq_hz
        burst = gestural.burst_rate_hz * gestural.burst_amplitude
    else:
        neck_energy, neck_freq, burst = 0.0, 0.0, 0.0
    tilt = postural.posture_pitch
    return np.array([phone_energy, phone_freq, neck_energy, neck_freq, tilt, burst])


@dataclass
class MicroObservationModel:
    """Samples observed micro context from ground truth.

    Parameters
    ----------
    posture_accuracy / gesture_accuracy:
        Diagonal mass of the confusion kernels; defaults are the paper's
        measured micro-classifier accuracies.
    feature_noise:
        Relative standard deviation of the Gaussian emission around the
        signature-derived mean.
    """

    posture_accuracy: float = 0.986
    gesture_accuracy: float = 0.953
    feature_noise: float = 0.6
    drift_level: float = 0.8
    drift_rho: float = 0.97
    seed: RandomState = None
    _rng: np.random.Generator = field(init=False, repr=False)
    _feature_scale: np.ndarray = field(init=False, repr=False)
    _drift: Dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        check_probability("posture_accuracy", self.posture_accuracy)
        check_probability("gesture_accuracy", self.gesture_accuracy)
        self._rng = ensure_rng(self.seed)
        # Per-dimension noise scale proportional to the spread of means.
        means = []
        for post_sig in POSTURAL_SIGNATURES.values():
            for gest_sig in GESTURAL_SIGNATURES.values():
                means.append(_signature_mean(post_sig, gest_sig))
        spread = np.std(np.array(means), axis=0)
        self._feature_scale = np.maximum(spread * self.feature_noise, 1e-3)

    # -- label noise -----------------------------------------------------------

    def observe_posture(self, true_posture: str) -> str:
        """Noisy postural classification of the pocket phone."""
        if self._rng.random() < self.posture_accuracy:
            return true_posture
        options = _POSTURE_CONFUSIONS.get(true_posture, ())
        if not options:
            return true_posture
        return str(self._rng.choice(list(options)))

    def observe_gesture(self, true_gesture: str) -> str:
        """Noisy oral-gesture classification of the neck tag."""
        if self._rng.random() < self.gesture_accuracy:
            return true_gesture
        options = _GESTURE_CONFUSIONS.get(true_gesture, ())
        if not options:
            return true_gesture
        return str(self._rng.choice(list(options)))

    # -- continuous emissions ----------------------------------------------------

    def emission_mean(self, posture: str, gesture: Optional[str]) -> np.ndarray:
        """Noise-free emission mean for a micro state (used in tests)."""
        post_sig = POSTURAL_SIGNATURES[posture]
        gest_sig = GESTURAL_SIGNATURES[gesture] if gesture is not None else None
        return _signature_mean(post_sig, gest_sig)

    def sample_features(
        self, posture: str, gesture: Optional[str], drift_key: str = ""
    ) -> Tuple[float, ...]:
        """Draw the continuous emission vector for one step.

        Besides white noise, each ``drift_key`` (one per resident) carries a
        slowly varying AR(1) disturbance: wearable features in the wild are
        *correlated* within a session (device placement, personal style), so
        segment-level averaging cannot wash the noise out.  Without this,
        feature-only macro classifiers become unrealistically strong.
        """
        mean = self.emission_mean(posture, gesture)
        drift = self._drift.get(drift_key)
        if drift is None:
            drift = self._rng.normal(0.0, self.drift_level * self._feature_scale)
        innovation_std = self.drift_level * self._feature_scale * np.sqrt(1 - self.drift_rho**2)
        drift = self.drift_rho * drift + self._rng.normal(0.0, innovation_std)
        self._drift[drift_key] = drift
        noisy = mean + drift + self._rng.normal(0.0, self._feature_scale)
        return tuple(float(v) for v in noisy)
