"""User scheduling: which of the K low-mobility users get the M subchannels.

Schedulers act on noiseless squared channel diagonals (perfect CSI at the
scheduler); all selections are scale invariant and break ties toward the
lowest user index so results are deterministic.
"""

import numpy as np


def schedule_draws(scheduler: str, rng: "np.random.Generator", trials: int,
                   k_users: int) -> np.ndarray:
    """The random numbers :func:`batch_schedule` consumes, one row per trial:
    (T, K) uniforms under random scheduling; the others draw nothing, (T, 0)."""
    if scheduler == "random":
        return rng.random((trials, k_users))
    return np.empty((trials, 0))


def batch_schedule(gains_sq: np.ndarray, scheduler: str, draws: np.ndarray,
                   m: int) -> np.ndarray:
    """Vectorized scheduling over trials: ``gains_sq`` is (T, K, M) squared
    magnitudes and ``draws`` the trials' rows of :func:`schedule_draws`;
    returns the selected user per (trial, subchannel), (T, M).
    """
    k_users = gains_sq.shape[1]
    if scheduler == "per_subchannel":
        return gains_sq.argmax(axis=1)
    if scheduler == "random":
        if k_users < m:
            raise ValueError("random scheduling needs K >= M")
        return draws.argsort(axis=1)[:, :m]
    if scheduler == "greedy":
        sel = gains_sq.min(axis=2).argmax(axis=1)
        return np.repeat(sel[:, None], m, axis=1)
    raise ValueError(f"unknown scheduler {scheduler!r}")
