"""Downlink OTFS-NOMA: superposition transmitter and both receiver chains.

The high-mobility user's symbols enter through the ISFFT while each scheduled
NOMA user fills one frequency subchannel directly in the time-frequency
plane.  The high-mobility user detects in the delay-Doppler plane treating
NOMA signals as noise; NOMA users run two-stage SIC on reduced M-point
observations.  Outage is information-theoretic throughout: a symbol is in
outage when log2(1 + SINR) falls below its target rate.
"""

from dataclasses import dataclass

import numpy as np

from .common import McEstimate
from .equalizers import PowerAllocation, fd_dfe_equalize, fd_le_equalize, GenieFeedback
from .grid_channel import ChannelProfile, ChannelRealization, Grid
from .harness import (
    last_pivot_kernel,
    monte_carlo,
    static_noise_enhancement,
    u0_noise_enhancement,
)
from .transforms import (
    Domain,
    Frame,
    build_block_circulant,
    diagonalize,
    isfft2,
    nomauser_diagonalize,
    sfft2,
)

EQUALIZERS = ("le", "dfe")


@dataclass(frozen=True)
class LinkConfig:
    """Transmit SNR and target rates; thresholds ε = 2^R − 1 are derived."""

    rho: float
    rate_u0: float
    rate_noma: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.rate_u0 <= 0 or self.rate_noma <= 0:
            raise ValueError("target rates must be positive")

    @property
    def threshold_u0(self) -> float:
        return 2.0**self.rate_u0 - 1.0

    @property
    def threshold_noma(self) -> float:
        return 2.0**self.rate_noma - 1.0


@dataclass(frozen=True, eq=False)
class DownlinkTxFrame:
    """Transmit-side payload: N×M delay-Doppler symbols for the high-mobility
    user plus an M×N array of NOMA symbols (row i−1 = user i's N symbols on
    subchannel i−1)."""

    grid: Grid
    u0_symbols: np.ndarray
    noma_symbols: np.ndarray
    power: PowerAllocation

    def __post_init__(self):
        n, m = self.grid.n_doppler, self.grid.m_delay
        u0 = np.asarray(self.u0_symbols, dtype=np.complex128)
        noma = np.asarray(self.noma_symbols, dtype=np.complex128)
        if u0.shape != (n, m):
            raise ValueError(f"u0_symbols must have shape {(n, m)}")
        if noma.shape != (m, n):
            raise ValueError(f"noma_symbols must have shape {(m, n)}")
        object.__setattr__(self, "u0_symbols", u0)
        object.__setattr__(self, "noma_symbols", noma)

    def to_time_frequency(self) -> Frame:
        mapped = self.noma_symbols.T  # cell (n, m) carries user m+1's n-th symbol
        values = self.power.gamma0 * isfft2(self.u0_symbols) + self.power.gamma1 * mapped
        return Frame(self.grid, values, Domain.TIME_FREQUENCY)


def build_tx_frame(grid: Grid, u0_symbols, noma_symbols, power: PowerAllocation) -> Frame:
    """Superimpose both user classes into one time-frequency frame.

    X[n, m] = γ₀·ISFFT(x₀)[n, m] + γ₁·x_{m+1}(n); with unit-variance symbol
    powers scaled to ρ the frame average power is ρ.
    """
    return DownlinkTxFrame(grid, u0_symbols, noma_symbols, power).to_time_frequency()


@dataclass(frozen=True, eq=False)
class DetectionReport:
    """Per-symbol SINRs, outage flags, and (when equalized) symbol estimates."""

    sinrs: np.ndarray
    outage: np.ndarray
    estimates: Frame | None = None


def u0_receive(tx: Frame, realization: ChannelRealization, rng: np.random.Generator,
               equalizer: str, power: PowerAllocation, link: LinkConfig) -> DetectionReport:
    """High-mobility user's receiver: direct delay-Doppler detection.

    The transmitted frame passes through the block-circulant channel with
    unit-variance delay-Doppler noise from ``rng``; SINRs come from the
    equalizer's noise enhancement ν, as in the Monte Carlo kernels, and the
    outage flag of symbol (k, l) is [SINR < 2^R₀ − 1].  A singular channel
    (ν = inf) marks every symbol as outage and leaves no estimates.
    """
    if equalizer not in EQUALIZERS:
        raise ValueError(f"equalizer must be one of {EQUALIZERS}")
    grid = tx.grid
    n, m = grid.n_doppler, grid.m_delay
    channel = build_block_circulant(realization, grid)
    x_dd = sfft2(tx.values)
    noise = np.sqrt(0.5) * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    y = Frame(grid, channel.apply(x_dd) + noise, Domain.DELAY_DOPPLER)

    d = diagonalize(channel)
    nu = u0_noise_enhancement(equalizer, realization.profile, realization.gains[None],
                              np.abs(d.d_values[None]) ** 2)
    sinrs = np.resize(power.sinr(link.rho, nu), (n, m))  # repeats the FD-LE value
    if np.isinf(nu).any():
        estimates = None
    elif equalizer == "le":
        estimates = fd_le_equalize(y, d)
    else:
        estimates = fd_dfe_equalize(y, channel, GenieFeedback(x_dd))
    return DetectionReport(sinrs=sinrs, outage=sinrs < link.threshold_u0, estimates=estimates)


def noma_stage1(realization: ChannelRealization, grid: Grid, rho: float,
                power: PowerAllocation, equalizer: str) -> np.ndarray:
    """Stage-I SIC at a NOMA user: SINRs for decoding the high-mobility
    user's symbols from the M-point static observations.

    Returns M values indexed by delay l; they do not depend on the Doppler
    index because the channel is time invariant.  FD-LE yields one common
    value ργ₀²/(ργ₁² + (1/M)Σ|D̃ˡ|⁻²); FD-DFE yields per-l values from the
    M-point pivots.  A singular channel returns all-zero SINRs.
    """
    if equalizer not in EQUALIZERS:
        raise ValueError(f"equalizer must be one of {EQUALIZERS}")
    d = nomauser_diagonalize(realization, grid)
    nu = static_noise_enhancement(equalizer, realization.profile, realization.gains,
                                  np.abs(d) ** 2)
    return np.resize(power.sinr(rho, nu), grid.m_delay)


def noma_stage2(realization: ChannelRealization, grid: Grid, rho: float,
                gamma1_sq: float, user_index: int) -> float:
    """Stage-II SIC: SNR of user ``user_index`` (1-based) on its own
    subchannel after the high-mobility signal is removed.

    One-tap equalization gives SNR = ργ₁²|D̃^{i−1}|², identical for all N
    symbols of the user.
    """
    if not 1 <= user_index <= grid.m_delay:
        raise ValueError("user_index must be in 1..M")
    d = nomauser_diagonalize(realization, grid)
    return float(rho * gamma1_sq * np.abs(d[user_index - 1]) ** 2)


def noma_outage(stage1_sinrs: np.ndarray, stage2_snr: float, link: LinkConfig) -> bool:
    """Joint SIC outage: success needs stage-II SNR > ε_i AND every stage-I
    SINR > ε₀; the flag is the complement."""
    ok1 = bool(np.all(np.asarray(stage1_sinrs) > link.threshold_u0))
    ok2 = stage2_snr > link.threshold_noma
    return not (ok1 and ok2)


def dfe_last_symbol_outage_mc(profile: ChannelProfile, rho: float, power: PowerAllocation,
                              rate_u0: float, trials: int, seed: int,
                              chunk: int = 1 << 18) -> McEstimate:
    """Monte Carlo outage of the best-protected DFE symbol x₀[N−1, M−1].

    The final pivot of H^H H = L^H Λ L equals the trailing diagonal Gram
    entry, i.e. the squared norm of the channel's last column, Σ_p |h_p|²,
    for every realization; sampling that effective gain directly makes
    million-trial runs cheap.  (The identity itself is validated against the
    dense factorization in the test suite.)
    """
    return monte_carlo(last_pivot_kernel, (profile, power, rate_u0), rho, (seed,), trials,
                       chunk)["u0_outage_last"]
