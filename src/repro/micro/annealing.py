"""Deterministic annealing clustering (Rose's algorithm).

Augmentation 4 fits multivariate-Gaussian observation models per micro
state; the paper (following Muncaster & Ma [8]) discovers representative
low-level states by deterministic annealing: soft k-means run over a
decreasing temperature schedule, splitting effective clusters as the
temperature crosses critical values.  DA is far less initialisation-
sensitive than plain k-means, which matters when cluster sizes are skewed
(e.g. long sleeping episodes vs brief yawns).

Layout.  The soft-assignment step works on ``(k, n)`` arrays: the data is
held once transposed, ``xt`` of shape ``(1, d, n)``, so the squared
distances are a sum over the middle axis of ``(k, d, n)`` and the
min-shift and normalisation reduce over ``k`` -- every inner loop runs
over the n points instead of over d or k.  The weights are transposed
back to ``(n, k)`` before each centre's ``weights[:, j] @ x``, so that
product reads the same strided column, in the same order, as the
``(n, k, d)`` broadcast this replaces.  Centres, and so labels, are bit
for bit those of that broadcast while ``d < 8`` and ``k < 8``: a sum over
fewer than 8 elements runs in index order whichever axis it is on, but
from 8 on, numpy's reduce over a contiguous inner axis switches to
pairwise summation and the last bits differ (the same caveat as
:class:`repro.core.chdbn.GmmBank`'s).  CACE features have d = 6 and the
mixtures 4 components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.util.rng import RandomState, ensure_rng
from repro.util.validation import check_in_range, check_positive


def _sq_dists(xt: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(k, n)`` squared distances of the points ``xt`` (``(1, d, n)``)
    to each of the ``(k, d)`` centres."""
    return ((xt - centers[:, :, None]) ** 2).sum(axis=1)


@dataclass
class DeterministicAnnealing:
    """Deterministic-annealing soft clustering.

    Parameters
    ----------
    n_clusters:
        Maximum number of clusters (codebook size).
    t_start / t_min:
        Initial and final temperatures, as multiples of the data variance.
    cooling:
        Geometric cooling factor per outer iteration (0 < cooling < 1).
    """

    n_clusters: int = 8
    t_start: float = 2.0
    t_min: float = 0.02
    cooling: float = 0.8
    max_inner_iters: int = 60
    tol: float = 1e-5
    seed: RandomState = None
    centers_: Optional[np.ndarray] = field(default=None, init=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("n_clusters", self.n_clusters)
        check_positive("t_start", self.t_start)
        check_positive("t_min", self.t_min)
        check_in_range("cooling", self.cooling, 1e-6, 0.999999)
        self._rng = ensure_rng(self.seed)

    def fit(self, x: np.ndarray) -> "DeterministicAnnealing":
        """Cluster ``(n, d)`` points; centres land in :attr:`centers_`."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        if n == 0:
            raise ValueError("cannot cluster an empty dataset")
        k = min(self.n_clusters, n)

        data_var = float(np.mean(np.var(x, axis=0))) + 1e-12
        temperature = self.t_start * data_var
        t_floor = self.t_min * data_var

        # Start from the global centroid, with tiny symmetric perturbations:
        # clusters "split" naturally as the temperature drops.
        centers = np.tile(x.mean(axis=0), (k, 1))
        centers += self._rng.normal(0.0, 1e-4 * np.sqrt(data_var), centers.shape)

        xt = np.ascontiguousarray(x.T)[None]
        while temperature > t_floor:
            for _ in range(self.max_inner_iters):
                old = centers.copy()
                # Soft assignments (Gibbs distribution at this temperature).
                d2 = _sq_dists(xt, centers)
                d2 -= d2.min(axis=0)
                w = np.exp(-d2 / max(temperature, 1e-12))
                w /= w.sum(axis=0)
                weights = w.T.copy()
                mass = weights.sum(axis=0)
                for j in range(k):
                    if mass[j] > 1e-12:
                        centers[j] = (weights[:, j] @ x) / mass[j]
                if np.max(np.abs(centers - old)) < self.tol:
                    break
            # Perturb coincident centres so they can split at lower T.
            centers += self._rng.normal(0.0, 1e-4 * np.sqrt(temperature), centers.shape)
            temperature *= self.cooling

        self.centers_ = self._dedupe(centers)
        return self

    def _dedupe(self, centers: np.ndarray) -> np.ndarray:
        """Merge centres that never separated (within numerical wobble)."""
        kept: list = []
        for c in centers:
            if all(np.linalg.norm(c - k) > 1e-3 for k in kept):
                kept.append(c)
        return np.array(kept)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard assignments to the nearest centre."""
        if self.centers_ is None:
            raise RuntimeError("not fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.argmin(_sq_dists(np.ascontiguousarray(x.T)[None], self.centers_), axis=0)

    def fit_gaussians(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fit the codebook and return ``(means, assignments)``: each
        cluster's member mean (its centre when it has no members) and
        every row's nearest cluster."""
        self.fit(x)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        labels = self.predict(x)
        means = np.zeros_like(self.centers_)
        for j in range(means.shape[0]):
            members = x[labels == j]
            means[j] = members.mean(axis=0) if len(members) else self.centers_[j]
        return means, labels
