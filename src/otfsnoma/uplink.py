"""Uplink OTFS-NOMA base-station receiver and its closed-form analytics.

Stage I detects the NOMA users' time-frequency cells with one-tap SINRs,
treating the high-mobility user as interference; stage II detects the
high-mobility user in the delay-Doppler plane after cancellation.  Under
fixed-rate NOMA transmission the stage-I outage has an SNR-independent error
floor whose exact alternating-sum expression and K!ε^K approximation are
implemented here alongside the Monte Carlo estimators.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .common import McEstimate, linear_to_db
from .equalizers import PowerAllocation
from .grid_channel import ChannelProfile, ChannelRealization, Grid
from .harness import ScenarioConfig, monte_carlo, u0_noise_enhancement, uplink_kernel
from .transforms import build_block_circulant, diagonalize, isfft2


@dataclass(frozen=True, eq=False)
class UplinkObservation:
    """Base-station time-frequency observations.

    ``values[n, m] = u0_channel[n, m]·X₀[n, m] + noma_channel[m]·x_{m+1}(n) + W[n, m]``
    with unit-variance white noise W.  The channel tables are the diagonal
    spectra of the users' delay-Doppler operators.
    """

    values: np.ndarray
    u0_channel: np.ndarray
    noma_channel: np.ndarray


def build_observation(grid: Grid, u0_channel: np.ndarray, u0_symbols: np.ndarray,
                      noma_channel: np.ndarray, noma_symbols: np.ndarray,
                      rng: np.random.Generator) -> UplinkObservation:
    """Superimpose both user classes at the base station and add noise.

    ``u0_symbols`` are delay-Doppler symbols (mapped through the ISFFT);
    ``noma_symbols`` is M×N with row m carrying the subchannel-m user.
    """
    n, m = grid.n_doppler, grid.m_delay
    x0_tf = isfft2(np.asarray(u0_symbols, dtype=np.complex128))
    noise = np.sqrt(0.5) * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    values = (np.asarray(u0_channel) * x0_tf
              + np.asarray(noma_channel)[None, :] * np.asarray(noma_symbols).T + noise)
    return UplinkObservation(values=values, u0_channel=np.asarray(u0_channel),
                             noma_channel=np.asarray(noma_channel))


def uplink_stage1_sinr(h_i, h_0, rho: float):
    """Stage-I SINR at cell (n, i−1): ρ|H_i|² / (ρ|H₀|² + 1).

    ``h_i`` is the scheduled user's gain D̃_i^{i−1} and ``h_0`` the
    high-mobility user's D₀^{n,i−1}; accepts arrays.
    """
    return rho * np.abs(h_i) ** 2 / (rho * np.abs(h_0) ** 2 + 1.0)


def adaptive_rate(h_i, h_0, rho: float):
    """Largest rate guaranteeing stage-I success: log2(1 + SINR) bits/use."""
    return np.log2(1.0 + uplink_stage1_sinr(h_i, h_0, rho))


def closed_form_outage(k_users: int, epsilon: float, rho: float) -> float:
    """Fixed-rate outage of the per-subchannel-scheduled NOMA user.

    P = Σ_{k=0}^{K} C(K,k)(−1)^k e^{−kε/ρ} / (kε + 1).

    The alternating sum cancels catastrophically (terms reach C(K, K/2)
    while the result can be ~1e−4), so it is evaluated in extended
    precision.
    """
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    if epsilon <= 0 or rho <= 0:
        raise ValueError("epsilon and rho must be positive")
    with mpmath.workdps(max(30, k_users + 25)):
        eps = mpmath.mpf(epsilon)
        total = mpmath.mpf(0)
        for k in range(k_users + 1):
            term = mpmath.binomial(k_users, k) * mpmath.exp(-k * eps / rho) / (k * eps + 1)
            total += term if k % 2 == 0 else -term
        return float(min(max(total, mpmath.mpf(0)), mpmath.mpf(1)))


def error_floor(k_users: int, epsilon: float) -> float:
    """High-SNR limit of :func:`closed_form_outage`: Σ C(K,k)(−1)^k/(kε+1)."""
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    with mpmath.workdps(max(30, k_users + 25)):
        eps = mpmath.mpf(epsilon)
        total = mpmath.mpf(0)
        for k in range(k_users + 1):
            term = mpmath.binomial(k_users, k) / (k * eps + 1)
            total += term if k % 2 == 0 else -term
        return float(min(max(total, mpmath.mpf(0)), mpmath.mpf(1)))


def floor_approx(k_users: int, epsilon: float) -> float:
    """Small-Kε approximation of the error floor: K!·ε^K.

    Monotone decreasing in K while (K+1)ε < 1, so inviting more opportunistic
    users lowers the floor.
    """
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    return math.factorial(k_users) * epsilon**k_users


def uplink_stage2_sinrs(realization: ChannelRealization, grid: Grid, rho: float,
                        equalizer: str) -> np.ndarray:
    """Interference-free stage-II SINRs for the high-mobility user, (N, M).

    FD-LE gives the common value ρ/φ; FD-DFE gives ρ/(1/λ) per symbol.  These
    are the downlink formulas at γ₀² = 1, γ₁² = 0.  Singular channels yield
    all-zero SINRs (outage).
    """
    if equalizer not in ("le", "dfe"):
        raise ValueError("equalizer must be 'le' or 'dfe'")
    d = diagonalize(build_block_circulant(realization, grid))
    nu = u0_noise_enhancement(equalizer, realization.profile, realization.gains[None],
                              np.abs(d.d_values[None]) ** 2)
    return np.resize(PowerAllocation.oma().sinr(rho, nu), (grid.n_doppler, grid.m_delay))


def _uplink_estimates(grid: Grid, u0_profile: ChannelProfile, noma_profile: ChannelProfile,
                      k_users: int, rate_u0: float, rate_noma: float, rho: float,
                      equalizer: str, trials: int, seed: int, scheduler: str,
                      chunk: int) -> dict:
    """Fixed-rate uplink metrics from the harness kernel; block b of ``chunk``
    trials draws from substream(seed, b)."""
    cfg = ScenarioConfig(direction="uplink", n=grid.n_doppler, m=grid.m_delay,
                         delta_f=grid.subcarrier_spacing, k_users=k_users, gamma0_sq=1.0,
                         rate_u0=rate_u0, rate_noma=rate_noma, equalizer=equalizer,
                         scheduler=scheduler, snr_db=(linear_to_db(rho),), trials=trials,
                         seed=seed, u0_profile=u0_profile, noma_profile=noma_profile)
    return monte_carlo(uplink_kernel, cfg, rho, (seed,), trials, chunk)


def fixed_rate_outage_mc(grid: Grid, u0_profile: ChannelProfile, noma_profile: ChannelProfile,
                         k_users: int, rate_noma: float, rho: float, trials: int, seed: int,
                         scheduler: str = "per_subchannel", chunk: int = 4096) -> McEstimate:
    """Monte Carlo stage-I outage of the scheduled NOMA users' symbols.

    Averages the flag [log2(1 + SINR_{i*_m,n}) < R] over all N·M cells and
    ``trials`` channel draws.
    """
    # U0's rate and equalizer do not enter the NOMA users' stage-I outage
    return _uplink_estimates(grid, u0_profile, noma_profile, k_users, rate_noma, rate_noma,
                             rho, "le", trials, seed, scheduler, chunk)["noma_outage"]


def uplink_u0_outage(grid: Grid, u0_profile: ChannelProfile, noma_profile: ChannelProfile,
                     k_users: int, rate_u0: float, rate_noma: float, rho: float,
                     equalizer: str, mode: str, trials: int, seed: int,
                     scheduler: str = "per_subchannel", chunk: int = 2048) -> McEstimate:
    """Monte Carlo outage of the high-mobility user honoring SIC coupling.

    ``mode='fixed'`` requires every stage-I cell to clear ε_i before the
    NOMA signals can be cancelled, so the outage inherits the stage-I error
    floor.  ``mode='adaptive'`` (rates chosen so stage I always succeeds) and
    ``mode='genie'`` (stage-I success forced) reduce to the pure stage-II
    outage, which matches OTFS-OMA.
    """
    if mode not in ("fixed", "adaptive", "genie"):
        raise ValueError("mode must be 'fixed', 'adaptive', or 'genie'")
    estimates = _uplink_estimates(grid, u0_profile, noma_profile, k_users, rate_u0, rate_noma,
                                  rho, equalizer, trials, seed, scheduler, chunk)
    return estimates["u0_outage" if mode == "fixed" else "u0_outage_stage2"]
