"""Dense Viterbi and forward-backward over a fixed state space: the test spec.

Every recogniser in ``src/`` decodes with
:func:`repro.core.kernels.viterbi_path` and the sum-product steps beside
it.  :func:`viterbi_decode` / :func:`forward_backward` are independent
textbook recursions over a ``(T, S)`` emission matrix and one ``(S, S)``
transition matrix; the tests compare the kernels and the NH / CHMM / FCRF
baselines against them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

NEG_INF = -1e30


def viterbi_decode(
    log_prior: np.ndarray, log_trans: np.ndarray, log_emissions: np.ndarray
) -> Tuple[np.ndarray, float]:
    """MAP state path for a fixed-state HMM.

    Parameters
    ----------
    log_prior:
        ``(S,)`` initial log probabilities.
    log_trans:
        ``(S, S)`` log transition matrix (row: from, column: to).
    log_emissions:
        ``(T, S)`` per-step emission log likelihoods.

    Returns the path ``(T,)`` and its joint log score.
    """
    log_prior = np.asarray(log_prior, dtype=float)
    log_trans = np.asarray(log_trans, dtype=float)
    log_emissions = np.asarray(log_emissions, dtype=float)
    t_len, n_states = log_emissions.shape
    if log_prior.shape != (n_states,) or log_trans.shape != (n_states, n_states):
        raise ValueError("inconsistent shapes between prior, transitions, emissions")
    if t_len == 0:
        return np.empty(0, dtype=int), 0.0

    delta = log_prior + log_emissions[0]
    backpointers = np.zeros((t_len, n_states), dtype=int)
    for t in range(1, t_len):
        scores = delta[:, None] + log_trans
        backpointers[t] = np.argmax(scores, axis=0)
        delta = scores[backpointers[t], np.arange(n_states)] + log_emissions[t]

    path = np.zeros(t_len, dtype=int)
    path[-1] = int(np.argmax(delta))
    best = float(delta[path[-1]])
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = backpointers[t, path[t]]
    return path, best


def forward_backward(
    log_prior: np.ndarray, log_trans: np.ndarray, log_emissions: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Posterior marginals for a fixed-state HMM.

    Returns ``(gamma, log_likelihood)`` where ``gamma`` is the ``(T, S)``
    posterior state marginals in probability space.
    """
    log_prior = np.asarray(log_prior, dtype=float)
    log_trans = np.asarray(log_trans, dtype=float)
    log_emissions = np.asarray(log_emissions, dtype=float)
    t_len, n_states = log_emissions.shape
    if t_len == 0:
        return np.empty((0, n_states)), 0.0

    def _lse(arr: np.ndarray, axis: int) -> np.ndarray:
        m = np.max(arr, axis=axis, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        return np.squeeze(m, axis=axis) + np.log(
            np.exp(arr - m).sum(axis=axis)
        )

    log_alpha = np.full((t_len, n_states), NEG_INF)
    log_alpha[0] = log_prior + log_emissions[0]
    for t in range(1, t_len):
        log_alpha[t] = log_emissions[t] + _lse(log_alpha[t - 1][:, None] + log_trans, axis=0)

    log_beta = np.zeros((t_len, n_states))
    for t in range(t_len - 2, -1, -1):
        log_beta[t] = _lse(log_trans + (log_emissions[t + 1] + log_beta[t + 1])[None, :], axis=1)

    log_z = _lse(log_alpha[-1], axis=0)
    gamma = np.exp(log_alpha + log_beta - log_z)
    return gamma, float(log_z)
