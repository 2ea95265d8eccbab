"""Frequency-domain equalizers and per-symbol SINR calculators.

FD-LE inverts the diagonalized channel in the transform domain; FD-DFE uses
the factorization H^H H = L^H Λ L (L unit lower triangular, Λ positive
diagonal) as feed-forward/feedback filters.  The Λ pivots are the per-symbol
effective fading gains: the last pivot always equals Σ_p |h_p|², and the
first equals the reciprocal of the FD-LE noise-enhancement factor, which is
why the first DFE decision is exactly as reliable as FD-LE.

The batched pivots (:func:`batch_dfe_lambdas`) use the structure of H^H H,
block-circulant with circulant blocks: an FFT over delay splits it into
Hermitian-Toeplitz problems that Schur's recursion solves in O(NM(N+M)) per
trial.  The dense Gram matrix and its Cholesky factor
(:func:`cholesky_factors`) are built only by the per-realization oracles.
"""

from dataclasses import dataclass

import numpy as np

from .common import SINGULARITY_EPS, DomainMismatchError, SingularChannelError
from .transforms import (
    BlockCirculantChannel,
    DiagonalizedChannel,
    Domain,
    Frame,
    dense_block_circulant,
    isfft2,
    sfft2,
)

# Trials × grid cells per sub-batch of batch_dfe_lambdas.  Its peak working
# memory is about 120 B per trial per cell, so a sub-batch holds about 16 MB
# whatever the block size; at 16×16 that is 512 trials, which ran about twice
# as fast per trial as one 4096-trial batch.
SCHUR_BATCH_CELLS = 1 << 17


@dataclass(frozen=True)
class PowerAllocation:
    """Downlink NOMA power split: γ₀² to the high-mobility user, γ₁² to each
    scheduled NOMA user; γ₀² + γ₁² = 1.  γ₁² = 0 is the OMA limit.
    """

    gamma0_sq: float
    gamma1_sq: float

    def __post_init__(self):
        if not (0.0 < self.gamma0_sq <= 1.0):
            raise ValueError("gamma0_sq must be in (0, 1]")
        if not (0.0 <= self.gamma1_sq < 1.0):
            raise ValueError("gamma1_sq must be in [0, 1)")
        if abs(self.gamma0_sq + self.gamma1_sq - 1.0) > 1e-9:
            raise ValueError("gamma0_sq + gamma1_sq must equal 1")

    @property
    def gamma0(self) -> float:
        return float(np.sqrt(self.gamma0_sq))

    @property
    def gamma1(self) -> float:
        return float(np.sqrt(self.gamma1_sq))

    @classmethod
    def split(cls, gamma0_sq: float) -> "PowerAllocation":
        return cls(gamma0_sq=gamma0_sq, gamma1_sq=1.0 - gamma0_sq)

    @classmethod
    def oma(cls) -> "PowerAllocation":
        return cls(gamma0_sq=1.0, gamma1_sq=0.0)

    def sinr(self, rho, nu):
        """Lemma 1's SINR ργ₀² / (ργ₁² + ν) of a symbol whose equalizer
        enhances the noise by ν: φ under FD-LE, 1/λ under FD-DFE.  ν = inf
        (a singular channel) gives 0; the OMA split gives ρ/ν exactly."""
        return rho * self.gamma0_sq / (rho * self.gamma1_sq + nu)


@dataclass(frozen=True, eq=False)
class DfeFactors:
    """Factors of H^H H = L^H Λ L: unit-lower-triangular L and pivots λ > 0."""

    l_factor: np.ndarray
    lam: np.ndarray


def batch_noise_enhancement(power: np.ndarray, axis) -> np.ndarray:
    """FD-LE φ = mean |D|⁻² over ``axis`` of the eigenvalue powers |D|².

    A channel with any |D|² < SINGULARITY_EPS² is singular and gets φ = inf,
    which puts every one of its symbols in outage.
    """
    phi = (1.0 / np.where(power > 0, power, np.inf)).mean(axis=axis)
    return np.where(power.min(axis=axis) < SINGULARITY_EPS**2, np.inf, phi)


def dfe_noise_enhancement(lam: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """FD-DFE ν = 1/λ per symbol from the (..., NM) pivots and validity mask
    of :func:`batch_dfe_lambdas`; a singular channel (``ok`` False) gets
    ν = inf on every symbol, like the FD-LE φ."""
    nu = 1.0 / lam
    nu[~ok] = np.inf
    return nu


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


def gram_taps_from_gains(doppler_taps, delay_taps, gains, n: int, m: int) -> np.ndarray:
    """(..., N, M) taps of the Gram operator H^H H (itself block-circulant).

    Path pair (p, q) contributes conj(h_p)h_q at Doppler (k_q−k_p) mod N and
    delay (l_q−l_p) mod M; gains may carry leading batch axes.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    out = np.zeros(gains.shape[:-1] + (n, m), dtype=np.complex128)
    npaths = len(delay_taps)
    for p in range(npaths):
        hp = np.conj(gains[..., p])
        for q in range(npaths):
            kk = int((doppler_taps[q] - doppler_taps[p]) % n)
            ll = int((delay_taps[q] - delay_taps[p]) % m)
            out[..., kk, ll] += hp * gains[..., q]
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


def static_gram_taps(delay_taps, gains, m: int) -> np.ndarray:
    """(..., M) taps of a Doppler-free channel's M×M circulant Gram block:
    the N=1 case of :func:`gram_taps_from_gains`."""
    return gram_taps_from_gains(np.zeros_like(delay_taps), delay_taps, gains, 1, m)[..., 0, :]


def _schur_errors(r: np.ndarray) -> np.ndarray:
    """Prediction-error powers P_0..P_L of Hermitian-Toeplitz autocorrelations.

    ``r[0..L]`` holds the lags along axis 0, any batch axes after it.  P_p is
    the Schur complement of one end element of the (p+1)×(p+1) Toeplitz
    matrix given the other p, i.e. 1/[T_{p+1}⁻¹]₀₀; it never increases with
    p.  Schur's recursion (Kailath & Sayed, SIAM Review 1995) carries the
    forward and backward error correlations ``fwd``, ``bwd`` and never forms
    a predictor; a singular matrix gives a zero, negative or non-finite
    power.  ``r`` is copied to lag-major contiguous memory first, since every
    step sweeps whole lags; a strided view gives the same bits, only slower.
    """
    r = np.ascontiguousarray(r)
    out = np.empty(r.shape, dtype=np.float64)
    out[0] = r[0].real
    fwd, bwd = r[1:], r[:-1]
    for p in range(1, r.shape[0]):
        k = -fwd[0] / bwd[0]
        out[p] = (bwd[0] + k.conj() * fwd[0]).real
        fwd, bwd = fwd[1:] + k * bwd[1:], bwd[:-1] + k.conj() * fwd[:-1]
    return out


def batch_dfe_lambdas(doppler_taps, delay_taps, gains: np.ndarray, n: int, m: int):
    """Pivots for a batch of channels, shape (T, NM), plus a validity mask;
    stacked (..., P) gains give (..., NM) pivots.

    λ[kM+l] is symbol (k, l)'s Schur complement in G = HᴴH given every later
    symbol, found from G's (T, N, M) taps without forming G:

    1. an FFT over delay splits G into M Hermitian-Toeplitz problems over
       Doppler, one per delay bin;
    2. each bin's order-(N−1−k) prediction-error power is that bin's
       eigenvalue of block k's M×M circulant Schur complement given blocks
       k+1..N−1;
    3. an IFFT over the bins gives that circulant's autocorrelation (block
       N−1 is the zero-Doppler Gram tap itself);
    4. its prediction-error powers of order M−1..0 are the pivots of
       symbols l = 0..M−1.

    The cost is O(NM(N+M)) per trial.  The trials run in sub-batches of
    about SCHUR_BATCH_CELLS / NM, so the working memory does not grow with
    T.  A trial with any pivot non-finite or below SINGULARITY_EPS is
    singular: it gets ``ok=False`` and λ = 1 as a placeholder, which
    :func:`dfe_noise_enhancement` turns into ν = inf, an outage on every
    symbol.  Trials never mix, so neither a singular trial nor the
    sub-batching changes the other trials' bits.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    flat = gains.reshape((-1, gains.shape[-1]))
    lam = np.empty((flat.shape[0], n * m))
    step = max(1, SCHUR_BATCH_CELLS // (n * m))
    for lo in range(0, flat.shape[0], step):
        lam[lo:lo + step] = _dfe_lambdas(doppler_taps, delay_taps, flat[lo:lo + step], n, m)
    ok = np.isfinite(lam).all(axis=-1) & (lam.min(axis=-1) >= SINGULARITY_EPS)
    lam[~ok] = 1.0
    return lam.reshape(gains.shape[:-1] + (n * m,)), ok.reshape(gains.shape[:-1])


def _dfe_lambdas(doppler_taps, delay_taps, gains: np.ndarray, n: int, m: int) -> np.ndarray:
    """Raw (T, NM) pivots of :func:`batch_dfe_lambdas` for (T, P) gains."""
    taps = gram_taps_from_gains(doppler_taps, delay_taps, gains, n, m)
    with np.errstate(all="ignore"):  # a singular trial's powers may be 0, < 0 or nan
        powers = _schur_errors(np.moveaxis(np.fft.fft(taps, axis=-1), -2, 0))
        blocks = np.fft.ifft(powers[::-1], axis=-1)
        blocks[-1] = taps[:, 0, :]
        lam = _schur_errors(np.moveaxis(blocks, -1, 0))[::-1]
    return np.moveaxis(lam, (0, 1), (-1, -2)).reshape(len(gains), n * m)


def batch_static_lambdas(delay_taps, gains: np.ndarray, m: int):
    """M-point pivots for stacked static channels, shape (..., M), plus mask.

    A Doppler-free channel is the N=1 case of the block-circulant one.  Its
    Gram matrix is an M×M circulant, and λ_l is that circulant's Toeplitz
    prediction-error power of order M−1−l, so the pivots never decrease in
    l: the smallest is λ₀ = 1/φ, the reciprocal of the FD-LE noise
    enhancement.
    """
    return batch_dfe_lambdas(np.zeros_like(delay_taps), delay_taps, gains, 1, m)
