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


def selected_gains(gains_sq: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """The (T, M) squared gains of the users that ``sel``, (T, M), puts on
    each subchannel, from the (T, K, M) ``gains_sq``."""
    return gains_sq[np.arange(len(sel))[:, None], sel, np.arange(gains_sq.shape[-1])]


def batch_scheduled_gains(gains_sq: np.ndarray, scheduler: str, draws: np.ndarray, m: int,
                          schedule) -> np.ndarray:
    """The scheduled users' (T, M) squared gains, for a reader that needs
    no selection: those of ``schedule(gains_sq, scheduler, draws, m)``,
    which is :func:`batch_schedule` or a wrapper of it, bit for bit.  Under
    per-subchannel scheduling that is each subchannel's max over the K
    users, the gain at the argmax, ties included, and NaN wherever the
    argmax finds one, so no selection is computed."""
    if scheduler == "per_subchannel":
        return gains_sq.max(axis=1)
    return selected_gains(gains_sq, schedule(gains_sq, scheduler, draws, m))
