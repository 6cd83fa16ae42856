"""iBeacon distance estimation and trilateration.

The testbed scatters 9 iBeacons whose RSSI gives each smartphone a noisy
distance estimate; trilateration over three or more beacons recovers the
phone's position, which maps to one of the 14 sub-regions.  We model the
standard log-distance path-loss channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_positive


@dataclass(frozen=True)
class Beacon:
    """A fixed iBeacon at a known 2-D position."""

    beacon_id: str
    position: Tuple[float, float]
    tx_power_dbm: float = -59.0  # RSSI at 1 m, typical iBeacon calibration
    path_loss_exponent: float = 2.2


@dataclass
class BeaconReceiver:
    """Smartphone-side iBeacon ranging.

    ``rssi_noise_db`` controls per-advertisement ranging quality; 2-4 dB is
    typical indoors.  ``rssi_samples`` advertisements are averaged per fix
    (the Estimote SDK the testbed uses smooths RSSI the same way), and only
    the ``max_anchors`` strongest beacons enter trilateration — distant
    ranges carry multiplicatively inflated error under log-distance path
    loss and would otherwise dominate the least-squares residual.
    """

    beacons: Sequence[Beacon]
    rssi_noise_db: float = 2.6
    max_range_m: float = 25.0
    rssi_samples: int = 5
    max_anchors: int = 5
    seed: RandomState = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("rssi_noise_db", self.rssi_noise_db)
        check_positive("max_range_m", self.max_range_m)
        if len(self.beacons) == 0:
            raise ValueError("BeaconReceiver needs at least one beacon")
        self._rng = ensure_rng(self.seed)

    # -- channel model -------------------------------------------------------

    def rssi(self, beacon: Beacon, position: Tuple[float, float]) -> Optional[float]:
        """Observed RSSI (dBm) from *beacon* at *position*, None if out of range.

        Averages ``rssi_samples`` independent advertisements, which shrinks
        the effective noise by ``sqrt(rssi_samples)``.
        """
        d = float(np.hypot(position[0] - beacon.position[0], position[1] - beacon.position[1]))
        d = max(d, 0.1)
        if d > self.max_range_m:
            return None
        loss = 10.0 * beacon.path_loss_exponent * np.log10(d)
        noise = float(np.mean(self._rng.normal(0.0, self.rssi_noise_db, size=self.rssi_samples)))
        return float(beacon.tx_power_dbm - loss + noise)

    @staticmethod
    def distance_from_rssi(beacon: Beacon, rssi_dbm: float) -> float:
        """Invert the path-loss model to a distance estimate in metres."""
        exponent = (beacon.tx_power_dbm - rssi_dbm) / (10.0 * beacon.path_loss_exponent)
        return float(10.0**exponent)

    # -- ranging + localisation -----------------------------------------------

    def range_all(self, position: Tuple[float, float]) -> List[Tuple[Beacon, float]]:
        """Distance estimates to every in-range beacon."""
        out: List[Tuple[Beacon, float]] = []
        for beacon in self.beacons:
            r = self.rssi(beacon, position)
            if r is not None:
                out.append((beacon, self.distance_from_rssi(beacon, r)))
        return out

    def localize(self, position: Tuple[float, float]) -> Optional[np.ndarray]:
        """Estimate the phone's 2-D position by trilateration, or None.

        Ranges every in-range beacon, keeps the ``max_anchors`` nearest
        estimates (strongest RSSI), and refines the linearised solution with
        distance-weighted Gauss-Newton iterations.
        """
        ranges = self.range_all(position)
        if len(ranges) < 3:
            return None
        ranges.sort(key=lambda pair: pair[1])
        ranges = ranges[: self.max_anchors]
        anchors = np.array([b.position for b, _ in ranges], dtype=float)
        dists = np.array([d for _, d in ranges], dtype=float)
        return trilaterate(anchors, dists)


def trilaterate(
    anchors: np.ndarray, distances: np.ndarray, gauss_newton_iters: int = 12
) -> np.ndarray:
    """Weighted trilateration from >= 3 anchor/distance pairs.

    A linearised least-squares solve (circle equations differenced against
    the first anchor) provides the initial estimate, then distance-weighted
    Gauss-Newton iterations minimise ``sum_i w_i (|x - a_i| - d_i)^2`` with
    ``w_i = 1 / (d_i + 0.5)^2``: under log-distance path loss the ranging
    error grows proportionally to the distance itself, so near anchors are
    far more trustworthy.
    """
    anchors = np.asarray(anchors, dtype=float)
    distances = np.asarray(distances, dtype=float)
    if anchors.ndim != 2 or anchors.shape[1] != 2:
        raise ValueError(f"anchors must be (n, 2), got {anchors.shape}")
    if anchors.shape[0] < 3:
        raise ValueError("trilateration needs at least 3 anchors")
    if anchors.shape[0] != distances.shape[0]:
        raise ValueError("anchors and distances must align")

    x0, y0 = anchors[0]
    d0 = distances[0]
    a_rows = []
    b_rows = []
    for (xi, yi), di in zip(anchors[1:], distances[1:]):
        a_rows.append([2 * (xi - x0), 2 * (yi - y0)])
        b_rows.append(d0**2 - di**2 + xi**2 - x0**2 + yi**2 - y0**2)
    a = np.array(a_rows, dtype=float)
    b = np.array(b_rows, dtype=float)
    estimate, *_ = np.linalg.lstsq(a, b, rcond=None)

    weights = 1.0 / (distances + 0.5) ** 2
    for _ in range(gauss_newton_iters):
        deltas = estimate[None, :] - anchors  # (n, 2)
        ranges = np.linalg.norm(deltas, axis=1)
        residuals = ranges - distances
        # Clamp only the Jacobian denominator: an estimate sitting on an
        # anchor has no usable direction (row -> 0), but its residual must
        # stay exact or the clamp itself drags the optimum off target.
        jacobian = deltas / np.maximum(ranges, 1e-9)[:, None]  # d|x-a|/dx
        jw = jacobian * weights[:, None]
        hessian = jw.T @ jacobian + 1e-9 * np.eye(2)
        gradient = jw.T @ residuals
        step = np.linalg.solve(hessian, gradient)
        estimate = estimate - step
        if float(np.linalg.norm(step)) < 1e-9:
            break
    return estimate
