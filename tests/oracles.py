"""Dense and per-realization references that the tests check the simulator against.

``otfsnoma`` computes every curve through batched kernels on the channels'
spectra and Gram taps.  This module keeps the slower, independent versions
of the same jobs: tagged-frame transforms, the block-circulant operator and
its dense NM×NM matrix, the dense Cholesky factorization and both
equalizers, the per-realization transmitters and receivers, the scalar
schedulers, the one ν function of the per-realization receivers
(``user_noise_enhancement``), which gives each symbol its lattice pivot
(``symbol_pivots``), standalone Monte Carlo estimators keyed by
(seed, block) and their serial block driver ``monte_carlo``, the
uplink outage's alternating sum in extended precision, and the gain draw,
the spectra and FD-LE φ in forms that spend temporary arrays or BLAS calls,
which the package's forms must match bit for bit.
"""

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import mpmath
import numpy as np

from otfsnoma.equalizers import (SINGULARITY_EPS, PowerAllocation, batch_dfe_lambdas,
                                  batch_noise_enhancement, gram_taps_from_gains)
from otfsnoma.grid_channel import ChannelProfile, sample_gain_matrix
from otfsnoma.harness import (BLOCK_TRIALS, EQUALIZERS, McEstimate, ScenarioConfig, _accumulate,
                              _block_sums, _block_tasks, scenario_kernel)
from otfsnoma.transforms import (_steering, dense_block_circulant, spectrum_from_taps,
                                 static_spectrum_from_taps)


# ---------------------------------------------------------------------------
#  Errors raised only by the oracles, and a unit helper
# ---------------------------------------------------------------------------


class DomainMismatchError(ValueError):
    """A frame was presented in the wrong plane for the requested transform."""


class SingularChannelError(ArithmeticError):
    """The effective channel is numerically singular.

    Raised only by the dense oracles ``fd_le_equalize`` and
    ``cholesky_factors``.  Every receiver instead maps a singular channel to
    noise enhancement ν = inf, so its SINR is 0 and every symbol is in outage.
    """


def linear_to_db(x_lin):
    return 10.0 * np.log10(x_lin)


# ---------------------------------------------------------------------------
#  Single channel realizations
# ---------------------------------------------------------------------------


def static_profile(num_paths: int, delay_taps) -> ChannelProfile:
    """Doppler-free profile for a low-mobility user (all Doppler taps zero)."""
    taps = [int(d) for d in delay_taps]
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    if len(taps) != num_paths:
        raise ValueError(f"expected {num_paths} delay taps, got {len(taps)}")
    if len(set(taps)) != len(taps):
        raise ValueError("duplicate delay tap")
    return ChannelProfile(paths=tuple((d, 0) for d in taps))


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One drawn channel: a profile plus one complex gain per path."""

    profile: ChannelProfile
    gains: np.ndarray

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.complex128)
        if gains.shape != (self.profile.num_paths,):
            raise ValueError("gains length must equal the number of paths")
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)

    @property
    def total_power(self) -> float:
        return float(np.sum(np.abs(self.gains) ** 2))


def complex_multiply_gains(profile: ChannelProfile, rng: np.random.Generator,
                           count: int) -> np.ndarray:
    """The (count, P+1) gains of :func:`sample_gain_matrix` by a complex
    multiply of the normals, ``scale * (re + 1j·im)``, which builds three
    complex temporaries; the package scales the normals in place instead."""
    scale = np.sqrt(1.0 / (2.0 * profile.num_paths))
    raw = rng.standard_normal((count, profile.num_paths, 2))
    return scale * (raw[..., 0] + 1j * raw[..., 1])


def per_trial_power_spectrum(profile: ChannelProfile, gains: np.ndarray, n: int,
                             m: int) -> np.ndarray:
    """|D|² of :func:`otfsnoma.transforms.power_spectrum` by one matrix
    product per trial (leading-axis entry): a stacked (T, R, P) @ (P, M)
    product, one BLAS call per trial; the package groups trials into fewer
    calls."""
    gains = np.asarray(gains, dtype=np.complex128)
    doppler, delay = _steering(profile, n, m)
    rows = gains[..., None, :] * doppler
    rows = rows.reshape((-1, math.prod(gains.shape[1:-1]) * n, gains.shape[-1]))
    return (np.abs(rows @ delay) ** 2).reshape(gains.shape[:-1] + (n, m))


def sample_realization(profile: ChannelProfile, rng: np.random.Generator) -> ChannelRealization:
    """Draw one realization; deterministic given the generator state."""
    gains = sample_gain_matrix(profile, rng, 1)[0]
    return ChannelRealization(profile=profile, gains=gains)


# ---------------------------------------------------------------------------
#  Tagged frames, the block-circulant operator and its diagonalization
# ---------------------------------------------------------------------------


class Grid(NamedTuple):
    """The N×M delay-Doppler grid: N Doppler bins by M delay bins."""

    n_doppler: int
    m_delay: int


class Domain(enum.Enum):
    DELAY_DOPPLER = "delay_doppler"
    TIME_FREQUENCY = "time_frequency"


@dataclass(frozen=True, eq=False)
class Frame:
    """An N×M block of complex symbols tagged with the plane it lives in."""

    grid: Grid
    values: np.ndarray
    domain: Domain

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        shape = (self.grid.n_doppler, self.grid.m_delay)
        if values.shape != shape:
            raise ValueError(f"frame values must have shape {shape}, got {values.shape}")
        object.__setattr__(self, "values", values)


def isfft2(x: np.ndarray) -> np.ndarray:
    """Unitary ISFFT of the trailing two axes (delay-Doppler → time-frequency).

    X[n, m] = (1/sqrt(NM)) Σ_k Σ_l x[k, l] e^{j2π(kn/N − ml/M)}
    """
    return np.fft.ifft(np.fft.fft(x, axis=-1, norm="ortho"), axis=-2, norm="ortho")


def sfft2(x: np.ndarray) -> np.ndarray:
    """Unitary SFFT of the trailing two axes; exact inverse of :func:`isfft2`.

    x[k, l] = (1/sqrt(NM)) Σ_n Σ_m X[n, m] e^{−j2π(nk/N − ml/M)}

    Applied to a row-major stacked delay-Doppler vector this is the detection
    transform F_N ⊗ F_M^H that diagonalizes every block-circulant channel.
    """
    return np.fft.fft(np.fft.ifft(x, axis=-1, norm="ortho"), axis=-2, norm="ortho")


def isfft(frame: Frame) -> Frame:
    """Map a delay-Doppler frame to the time-frequency plane."""
    if frame.domain is not Domain.DELAY_DOPPLER:
        raise DomainMismatchError("isfft expects a delay-Doppler frame")
    return Frame(frame.grid, isfft2(frame.values), Domain.TIME_FREQUENCY)


def sfft(frame: Frame) -> Frame:
    """Map a time-frequency frame to the delay-Doppler plane."""
    if frame.domain is not Domain.TIME_FREQUENCY:
        raise DomainMismatchError("sfft expects a time-frequency frame")
    return Frame(frame.grid, sfft2(frame.values), Domain.DELAY_DOPPLER)


def tap_array(realization: ChannelRealization, grid: Grid) -> np.ndarray:
    """(N, M) array with gain h_p at [doppler_tap_p, delay_tap_p]."""
    prof = realization.profile
    prof.check_fits(*grid)
    out = np.zeros((grid.n_doppler, grid.m_delay), dtype=np.complex128)
    out[prof.doppler_taps, prof.delay_taps] = realization.gains
    return out


@dataclass(frozen=True, eq=False)
class BlockCirculantChannel:
    """Sparse-tap view of the delay-Doppler channel operator H.

    The dense matrix is built lazily and only for oracle-scale grids; the
    production path applies H as a 2-D circular convolution via FFTs.
    """

    grid: Grid
    realization: ChannelRealization

    def __post_init__(self):
        self.realization.profile.check_fits(*self.grid)

    def tap_array(self) -> np.ndarray:
        return tap_array(self.realization, self.grid)

    @cached_property
    def matrix(self) -> np.ndarray:
        return dense_block_circulant(self.tap_array())

    def apply(self, values: np.ndarray) -> np.ndarray:
        """y[k, l] = Σ_p h_p x[(k − k_p) mod N, (l − l_p) mod M].

        Accepts stacked leading axes; O(NM log NM) per frame.
        """
        values = np.asarray(values, dtype=np.complex128)
        kernel = np.fft.fft2(self.tap_array())
        return np.fft.ifft2(np.fft.fft2(values) * kernel)


def build_block_circulant(realization: ChannelRealization, grid: Grid) -> BlockCirculantChannel:
    """Wrap a realization as a block-circulant operator, validating taps."""
    return BlockCirculantChannel(grid=grid, realization=realization)


@dataclass(frozen=True, eq=False)
class DiagonalizedChannel:
    """Eigenvalues D[k, l] of H under the F_N ⊗ F_M^H conjugation.

    Row-major order matches the stacked symbol order, so D[k, l] multiplies
    symbol (k, l) in the transform domain.
    """

    d_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d_values", np.asarray(self.d_values, dtype=np.complex128))


def diagonalize(channel: BlockCirculantChannel) -> DiagonalizedChannel:
    """Compute all NM eigenvalues from the sparse taps (no dense product)."""
    return DiagonalizedChannel(d_values=spectrum_from_taps(channel.tap_array()))


def nomauser_diagonalize(realization: ChannelRealization, grid: Grid) -> np.ndarray:
    """M diagonal values of a Doppler-free channel's single circulant block.

    Equals any Doppler row of :func:`diagonalize` on the same channel; raises
    if the profile carries a nonzero Doppler tap.
    """
    prof = realization.profile
    if not prof.is_static():
        raise ValueError("nomauser_diagonalize requires a Doppler-free profile")
    prof.check_fits(*grid)
    taps = np.zeros(grid.m_delay, dtype=np.complex128)
    taps[prof.delay_taps] = realization.gains
    return static_spectrum_from_taps(taps)


# ---------------------------------------------------------------------------
#  Dense FD-LE and FD-DFE equalizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DfeFactors:
    """Factors of H^H H = L^H Λ L: unit-lower-triangular L and pivots λ > 0."""

    l_factor: np.ndarray
    lam: np.ndarray


def noise_enhancement(d: DiagonalizedChannel) -> float:
    """φ = (1/NM) Σ |D[k,l]|⁻², the FD-LE noise amplification.

    Equal to (1/NM)·trace(D⁻¹D⁻ᴴ); returns inf for a singular channel.
    """
    return float(batch_noise_enhancement(np.abs(d.d_values) ** 2, None))


def fd_le_equalize(y: Frame, d: DiagonalizedChannel) -> Frame:
    """Zero-forcing equalization: transform, divide by D, transform back.

    Noiseless input reproduces the superimposed symbols exactly; the output
    equals the dense H⁻¹y but costs only two symplectic transforms.
    """
    if y.domain is not Domain.DELAY_DOPPLER:
        raise DomainMismatchError("fd_le_equalize expects a delay-Doppler frame")
    if d.d_values.shape != y.values.shape:
        raise ValueError("diagonal channel shape does not match the frame")
    if np.isinf(noise_enhancement(d)):
        raise SingularChannelError("channel eigenvalue below singularity threshold")
    out = isfft2(sfft2(y.values) / d.d_values)
    return Frame(y.grid, out, Domain.DELAY_DOPPLER)


def fd_le_sinr(d: DiagonalizedChannel, rho: float, p: PowerAllocation) -> float:
    """Common FD-LE SINR of every symbol: ργ₀² / (ργ₁² + φ).

    All NM symbols see the same value because the noise covariance after
    equalization is block-circulant with constant diagonal φ.  A singular
    channel yields SINR 0 (certain outage).
    """
    return p.sinr(rho, noise_enhancement(d))


def _reversed_cholesky(gram: np.ndarray):
    """Cholesky factor C of the index-reversed Gram matrix, and the pivots λ
    (in symbol order) of G = L^H Λ L.  Supports stacked leading axes; raises
    ``numpy.linalg.LinAlgError`` when any matrix is not positive definite.
    """
    chol = np.linalg.cholesky(gram[..., ::-1, ::-1])
    diag = np.einsum("...ii->...i", chol).real
    return chol, (diag * diag)[..., ::-1]


def schur_errors_reference(r: np.ndarray) -> np.ndarray:
    """Prediction-error powers P_0..P_L of Hermitian-Toeplitz autocorrelations
    ``r[0..L]`` (lags along axis 0) by Schur's recursion on new arrays at
    every step, over every lag: the reference that ``equalizers._schur_errors``,
    in place and within the Doppler band, must match bit for bit."""
    out = np.empty(r.shape)
    out[0] = r[0].real
    fwd, bwd = r[1:], r[:-1]
    for p in range(1, r.shape[0]):
        k = -fwd[0] / bwd[0]
        out[p] = (bwd[0] + k.conj() * fwd[0]).real
        fwd, bwd = fwd[1:] + k * bwd[1:], bwd[:-1] + k.conj() * fwd[:-1]
    return out


def cholesky_factors(channel: BlockCirculantChannel) -> DfeFactors:
    """Factor H^H H = L^H Λ L for the FD-DFE.

    The Gram matrix is assembled from the channel taps and factored densely
    (desk-scale grids only).  Raises :class:`SingularChannelError` when H is
    rank deficient, i.e. any pivot falls below the singularity threshold.
    """
    prof, grid = channel.realization.profile, channel.grid
    gram = dense_block_circulant(gram_taps_from_gains(
        prof.doppler_taps, prof.delay_taps, channel.realization.gains,
        grid.n_doppler, grid.m_delay))
    try:
        chol, lam = _reversed_cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularChannelError("H^H H is not positive definite") from exc
    if lam.min() < SINGULARITY_EPS:
        raise SingularChannelError("DFE pivot below singularity threshold")
    l_factor = (chol / np.diagonal(chol).real).conj().T[::-1, ::-1]
    return DfeFactors(l_factor=l_factor, lam=lam)


def qpsk_alphabet(power: float = 1.0) -> np.ndarray:
    """The four QPSK points at average power ``power``."""
    return np.sqrt(power / 2.0) * np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])


@dataclass(frozen=True, eq=False)
class GenieFeedback:
    """Perfect decision feedback: the true superposition is fed back, so the
    estimate is exactly x + L(HᴴH)⁻¹Hᴴz (no error propagation)."""

    true_symbols: np.ndarray


@dataclass(frozen=True, eq=False)
class HardDecisionFeedback:
    """Slice each symbol to the nearest alphabet point before feeding back.

    Quantifies error propagation relative to the genie upper bound.
    """

    alphabet: np.ndarray


def fd_dfe_equalize(y: Frame, channel: BlockCirculantChannel, feedback,
                    factors: DfeFactors | None = None) -> Frame:
    """Decision-feedback equalization of a delay-Doppler observation.

    Feed-forward P = L(HᴴH)⁻¹Hᴴ, feedback G = L − I; decisions propagate in
    row-major symbol order (symbol (0,0) first), which is the order the unit
    lower triangular feedback supports.
    """
    if y.domain is not Domain.DELAY_DOPPLER:
        raise DomainMismatchError("fd_dfe_equalize expects a delay-Doppler frame")
    if factors is None:
        factors = cholesky_factors(channel)
    n, m = y.grid.n_doppler, y.grid.m_delay
    hmat = channel.matrix
    yvec = y.values.reshape(-1)
    gram = hmat.conj().T @ hmat
    forward = factors.l_factor @ np.linalg.solve(gram, hmat.conj().T @ yvec)

    if isinstance(feedback, GenieFeedback):
        xvec = np.asarray(feedback.true_symbols, dtype=np.complex128).reshape(-1)
        est = forward - factors.l_factor @ xvec + xvec
    elif isinstance(feedback, HardDecisionFeedback):
        alphabet = np.asarray(feedback.alphabet, dtype=np.complex128).reshape(-1)
        est = np.empty_like(forward)
        decided = np.zeros_like(forward)
        lmat = factors.l_factor
        for j in range(est.shape[0]):
            est[j] = forward[j] - lmat[j, :j] @ decided[:j]
            decided[j] = alphabet[np.argmin(np.abs(est[j] - alphabet))]
    else:
        raise TypeError("feedback must be GenieFeedback or HardDecisionFeedback")
    return Frame(y.grid, est.reshape(n, m), Domain.DELAY_DOPPLER)


def fd_dfe_sinrs(factors: DfeFactors, rho: float, p: PowerAllocation) -> np.ndarray:
    """Per-symbol DFE SINRs ργ₀² / (ργ₁² + 1/λ), row-major symbol order.

    Unlike FD-LE the symbols see unequal effective gains; the last symbol
    always gets λ = Σ|h_p|² and the first the FD-LE-equivalent 1/φ.
    """
    return p.sinr(rho, 1.0 / factors.lam)


# ---------------------------------------------------------------------------
#  Scalar schedulers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class UserPool:
    """Per-user static channel diagonals: ``diag_magnitudes[i, l] = |D̃_i^l|``."""

    diag_magnitudes: np.ndarray

    def __post_init__(self):
        mags = np.asarray(self.diag_magnitudes, dtype=float)
        if mags.ndim != 2 or mags.shape[0] < 1 or mags.shape[1] < 1:
            raise ValueError("diag_magnitudes must be a (K, M) array with K, M >= 1")
        if not np.all(np.isfinite(mags)) or np.any(mags < 0):
            raise ValueError("diagonal magnitudes must be finite and non-negative")
        object.__setattr__(self, "diag_magnitudes", mags)

    @property
    def k_users(self) -> int:
        return self.diag_magnitudes.shape[0]

    @property
    def n_subchannels(self) -> int:
        return self.diag_magnitudes.shape[1]

    @classmethod
    def from_diagonals(cls, diagonals) -> "UserPool":
        """Build from complex per-user diagonals, shape (K, M)."""
        return cls(diag_magnitudes=np.abs(np.asarray(diagonals)))


def random_schedule(pool: UserPool, rng: np.random.Generator) -> np.ndarray:
    """Pick M of the K users uniformly without replacement (one per subchannel)."""
    if pool.k_users < pool.n_subchannels:
        raise ValueError("random scheduling needs at least as many users as subchannels")
    return rng.choice(pool.k_users, size=pool.n_subchannels, replace=False)


def greedy_schedule(pool: UserPool) -> int:
    """Single user maximizing its worst subchannel gain, min_l |D̃_i^l|².

    The winner occupies every subchannel; ties go to the lowest index.
    """
    mins = (pool.diag_magnitudes**2).min(axis=1)
    return int(np.argmax(mins))


def per_subchannel_schedule(pool: UserPool) -> np.ndarray:
    """Best user per subchannel, argmax_i |D̃_i^m|² for each m.

    A user may win several subchannels; ties go to the lowest index.
    """
    return np.argmax(pool.diag_magnitudes**2, axis=0)


# ---------------------------------------------------------------------------
#  Downlink transmitter and per-realization receivers
# ---------------------------------------------------------------------------


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
        values = (math.sqrt(self.power.gamma0_sq) * isfft2(self.u0_symbols)
                  + math.sqrt(self.power.gamma1_sq) * mapped)
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


def symbol_pivots(profile: ChannelProfile, lam: np.ndarray, n: int, m: int) -> np.ndarray:
    """(T, NM) pivots, one per symbol, from ``batch_dfe_lambdas``'s (T, NM/(e·d))
    lattice pivots: symbol (k, l) takes lattice symbol (k // e, l // d), with
    e and d the gcds of N and M with the taps' Doppler and delay offsets."""
    k, l = np.asarray(profile.doppler_taps), np.asarray(profile.delay_taps)
    e, d = np.gcd.reduce(np.append(k - k[0], n)), np.gcd.reduce(np.append(l - l[0], m))
    lattice = np.reshape(lam, (len(lam), n // e, m // d))
    return lattice[:, np.arange(n)[:, None] // e, np.arange(m) // d].reshape(len(lam), n * m)


def user_noise_enhancement(equalizer: str, profile: ChannelProfile, gains: np.ndarray,
                           power: np.ndarray, n: int, m: int) -> np.ndarray:
    """ν of a user on the N×M grid from its (..., P+1) gains and eigenvalue
    powers |D|²: (..., 1) under FD-LE, the φ of the powers, and (..., NM)
    under FD-DFE, from the gains alone.  The powers may be the whole grid's
    (..., N, M) or one copy of the coupling lattice, (..., N/e, M/d), as the
    harness computes them: φ is the same mean.  A Doppler-free user passes
    its (..., M) powers as (..., 1, M) and the grid 1×M."""
    if equalizer == "le":
        return batch_noise_enhancement(power, (-2, -1))[..., None]
    gains = np.asarray(gains)
    lam, ok = batch_dfe_lambdas(profile.doppler_taps, profile.delay_taps,
                                gains.reshape(-1, gains.shape[-1]), n, m)
    nu = np.where(ok[:, None], 1.0 / symbol_pivots(profile, lam, n, m), np.inf)
    return nu.reshape(gains.shape[:-1] + (n * m,))


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
    nu = user_noise_enhancement(equalizer, realization.profile, realization.gains[None],
                                np.abs(d.d_values[None]) ** 2, n, m)
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
    nu = user_noise_enhancement(equalizer, realization.profile, realization.gains,
                                np.abs(d[None]) ** 2, 1, grid.m_delay)
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


def exact_u0_outage_counts(cfg, rho: float, h0, a0, splits) -> list:
    """U0's outage count and first and last flags under each of ``splits``,
    reduced from every symbol's flag with every trial's ν from
    ``user_noise_enhancement``: under FD-DFE, the pivots of every trial,
    where ``harness.u0_outage_counts`` decides most trials from the bracket
    [1/φ, Σ|h_p|²] and must give the same bits."""
    eps0 = 2.0**cfg.rate_u0 - 1.0
    nu = user_noise_enhancement(cfg.equalizer, cfg.u0_profile, h0, a0, cfg.n, cfg.m)
    with np.errstate(divide="ignore"):  # the OMA SINR at FD-LE's φ = 0 (all-inf powers)
        flags = [np.broadcast_to(split.sinr(rho, nu) < eps0, (len(h0), cfg.n * cfg.m))
                 for split in splits]
    return [(np.count_nonzero(f, axis=1), f[:, 0], f[:, -1]) for f in flags]


def noma_outage(stage1_sinrs: np.ndarray, stage2_snr: float, link: LinkConfig) -> bool:
    """Joint SIC outage: success needs stage-II SNR ≥ ε_i AND every stage-I
    SINR ≥ ε₀; the flag is the complement, so a user is in outage iff some
    stage's SINR is below its ε, as U0 is."""
    ok1 = bool(np.all(np.asarray(stage1_sinrs) >= link.threshold_u0))
    ok2 = stage2_snr >= link.threshold_noma
    return not (ok1 and ok2)


def monte_carlo(kernel, cfg, rho: float, key: tuple, trials: int,
                chunk: int = BLOCK_TRIALS) -> dict:
    """{metric: McEstimate} of ``kernel`` over ``trials`` trials, run serially
    in blocks of ``chunk``; block b draws from substream(*key, b)."""
    return _accumulate(itertools.starmap(_block_sums,
                                         _block_tasks(kernel, cfg, rho, key, trials, chunk)))


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


def last_pivot_kernel(cfg, rho: float, rng, trials: int) -> dict:
    """Outage of the best-protected FD-DFE symbol from its pivot Σ|h_p|².

    ``cfg`` is ``(profile, power, rate_u0)`` with ``power`` a
    :class:`~otfsnoma.equalizers.PowerAllocation`.
    """
    profile, power, rate_u0 = cfg
    nu = 1.0 / np.sum(np.abs(sample_gain_matrix(profile, rng, trials)) ** 2, axis=1)
    return {"u0_outage_last": power.sinr(rho, nu) < 2.0**rate_u0 - 1.0}


# ---------------------------------------------------------------------------
#  Uplink observation, per-realization SINRs and standalone estimators
# ---------------------------------------------------------------------------


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
    nu = user_noise_enhancement(equalizer, realization.profile, realization.gains[None],
                                np.abs(d.d_values[None]) ** 2, grid.n_doppler, grid.m_delay)
    return np.resize(PowerAllocation.oma().sinr(rho, nu), (grid.n_doppler, grid.m_delay))


def _uplink_estimates(grid: Grid, u0_profile: ChannelProfile, noma_profile: ChannelProfile,
                      k_users: int, rate_u0: float, rate_noma: float, rho: float,
                      equalizer: str, trials: int, seed: int, scheduler: str,
                      chunk: int) -> dict:
    """Fixed-rate uplink metrics from the harness kernel; block b of ``chunk``
    trials draws from substream(seed, b)."""
    cfg = ScenarioConfig(direction="uplink", n=grid.n_doppler, m=grid.m_delay,
                         k_users=k_users, gamma0_sq=1.0, rate_u0=rate_u0, rate_noma=rate_noma,
                         equalizer=equalizer, scheduler=scheduler, snr_db=(linear_to_db(rho),),
                         trials=trials, seed=seed, u0_profile=u0_profile,
                         noma_profile=noma_profile)
    return monte_carlo(scenario_kernel, cfg, rho, (seed,), trials, chunk)


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


def alternating_sum_outage(k_users: int, epsilon: float, rho: float) -> float:
    """Fixed-rate uplink outage Σ_{k=0}^{K} C(K,k)(−1)^k e^{−kε/ρ}/(kε + 1).

    The terms reach C(K, K/2) ≤ 10^{0.31K} while the sum can be as small as
    the floor K!ε^K/∏(1+jε) ≥ min(ε, 1)^K/(K+1), so 40 + K + K·max(0, −log10 ε)
    digits cover the cancellation with room to spare.
    """
    digits = 40 + k_users + math.ceil(k_users * max(0.0, -math.log10(epsilon)))
    with mpmath.workdps(digits):
        eps = mpmath.mpf(epsilon)
        total = mpmath.fsum((-1) ** k * mpmath.binomial(k_users, k)
                            * mpmath.exp(-k * eps / rho) / (k * eps + 1)
                            for k in range(k_users + 1))
        return float(total)
