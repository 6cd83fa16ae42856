"""Loop specifications of the array-shaped fit path.

Tests import this module as ``fit_spec`` and compare the production code
against it:

* :class:`LoopDeterministicAnnealing` runs the soft-assignment step on the
  ``(n, k, d)`` broadcast, reducing over the inner axis;
  :class:`repro.micro.annealing.DeterministicAnnealing` runs it on the
  ``(k, n)`` layout.
* :func:`loop_object_cpt` counts the object-evidence CPT one resident,
  step and object at a time; :func:`repro.core.chdbn.fit_object_cpt`
  counts it with one ``np.add.at``.
* :func:`encode_step` builds one transaction of the paper's two-slice
  schema (47 elements at t, 47 at t-1) directly from the truths, and
  :func:`paper_transactions` builds a sequence's;
  :func:`repro.mining.context_rules.encode_sequence` builds their time-t
  slices from memoised item lists, and mining those gives the same rules.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.micro.annealing import DeterministicAnnealing
from repro.mining.context_rules import ambient_items, truth_items


class LoopDeterministicAnnealing(DeterministicAnnealing):
    """Rose's algorithm with the ``(n, k, d)`` soft-assignment step."""

    def fit(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        if n == 0:
            raise ValueError("cannot cluster an empty dataset")
        k = min(self.n_clusters, n)

        data_var = float(np.mean(np.var(x, axis=0))) + 1e-12
        temperature = self.t_start * data_var
        t_floor = self.t_min * data_var

        centers = np.tile(x.mean(axis=0), (k, 1))
        centers += self._rng.normal(0.0, 1e-4 * np.sqrt(data_var), centers.shape)

        while temperature > t_floor:
            for _ in range(self.max_inner_iters):
                old = centers.copy()
                d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
                d2 -= d2.min(axis=1, keepdims=True)
                weights = np.exp(-d2 / max(temperature, 1e-12))
                weights /= weights.sum(axis=1, keepdims=True)
                mass = weights.sum(axis=0)
                for j in range(k):
                    if mass[j] > 1e-12:
                        centers[j] = (weights[:, j] @ x) / mass[j]
                if np.max(np.abs(centers - old)) < self.tol:
                    break
            centers += self._rng.normal(0.0, 1e-4 * np.sqrt(temperature), centers.shape)
            temperature *= self.cooling

        self.centers_ = self._dedupe(centers)
        return self

    def predict(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d2 = ((x[:, None, :] - self.centers_[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)


def loop_object_cpt(train, constraint_model, alpha=1.0):
    """``(object_index, log_table)`` counted one object at a time."""
    objects = sorted(
        {obj for seq in train.sequences for step in seq.steps for obj in step.objects_fired}
    )
    object_index = {obj: i for i, obj in enumerate(objects)}
    n_m = constraint_model.n_macro
    counts = np.full((n_m, max(len(objects), 1), 2), alpha, dtype=float)
    for seq in train.sequences:
        for rid in seq.resident_ids:
            for step, truth in zip(seq.steps, seq.truths):
                m = constraint_model.macro_index.index(truth[rid].macro)
                for obj, o in object_index.items():
                    counts[m, o, 1 if obj in step.objects_fired else 0] += 1
    probs = counts / counts.sum(axis=2, keepdims=True)
    return object_index, np.log(probs)


def encode_step(truths_now, truths_prev, rooms_fired, objects_fired, slot_of):
    """One transaction: both time slices of every resident plus ambient."""
    items = []
    for rid, truth in truths_now.items():
        items.extend(truth_items(slot_of[rid], truth))
    if truths_prev is not None:
        for rid, truth in truths_prev.items():
            items.extend(i._replace(time="t-1") for i in truth_items(slot_of[rid], truth))
    items.extend(ambient_items(rooms_fired, objects_fired))
    return frozenset(items)


def paper_transactions(seq):
    """A sequence's two-slice transactions, one per step and slot order."""
    orders = list(permutations(seq.resident_ids))
    out, prev = [], None
    for step, truth in zip(seq.steps, seq.truths):
        for order in orders:
            slot_of = {rid: f"u{i + 1}" for i, rid in enumerate(order)}
            out.append(
                encode_step(truth, prev, step.rooms_fired, step.objects_fired, slot_of)
            )
        prev = truth
    return out


def time_t_slice(transactions):
    """Each transaction without its t-1 items."""
    return [frozenset(i for i in tx if i.time == "t") for tx in transactions]
