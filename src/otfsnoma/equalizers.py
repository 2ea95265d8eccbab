"""Noise enhancement of the FD-LE and FD-DFE equalizers, and Lemma 1's SINR.

Every receiver sees its equalizer through one value ν per symbol, and
:meth:`PowerAllocation.sinr` turns ν into the symbol's SINR.  FD-LE inverts
the diagonalized channel, so every symbol gets ν = φ, the mean of |D|⁻².
FD-DFE uses the factorization H^H H = L^H Λ L (L unit lower triangular, Λ
positive diagonal), so symbol i gets ν = 1/λ_i.  The last pivot always
equals Σ_p |h_p|², and the first equals 1/φ, which is why the first DFE
decision is exactly as reliable as FD-LE.

The pivots (:func:`batch_dfe_lambdas`) use the structure of H^H H,
block-circulant with circulant blocks: an FFT over delay splits it into
Hermitian-Toeplitz problems that Schur's recursion solves in O(NM(N+M)) per
trial, without forming the NM×NM Gram matrix.
"""

from dataclasses import dataclass

import numpy as np

# Unused here: bound so that the benchmark's tracer (bench/tracing.py), which
# wraps names where callers look them up, still finds it in this module.
from .transforms import dense_block_circulant  # noqa: F401

# Magnitudes / pivots below this are treated as a numerically singular channel.
SINGULARITY_EPS = 1e-12


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


def batch_noise_enhancement(power: np.ndarray, axis) -> np.ndarray:
    """FD-LE φ = mean |D|⁻² over ``axis`` of the eigenvalue powers |D|².

    A channel with some |D|² < SINGULARITY_EPS² or NaN is singular and gets
    φ = inf, which puts every one of its symbols in outage; its mean of the
    reciprocals, which may be inf or NaN, is discarded.  The rule is tested
    once on the whole array, and per channel only when some power fails it,
    which a Gaussian draw all but never does.
    """
    with np.errstate(all="ignore"):  # only a singular channel's mean can warn
        phi = (1.0 / power).mean(axis=axis)
    regular = power >= SINGULARITY_EPS**2
    if regular.all():
        return phi
    return np.where(regular.all(axis=axis), phi, np.inf)


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


# Unused by the simulator; bench/tracing.py wraps it by name.
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

    The cost is O(NM(N+M)) per trial, and the working memory about 120 B
    per trial per cell, for all the trials passed at once; the harness
    kernel bounds it by passing one of its sub-batches at a time.  A trial
    with any pivot non-finite or below SINGULARITY_EPS is singular: it gets
    ``ok=False`` and λ = 1 as a placeholder, which
    ``harness.user_noise_enhancement`` turns into ν = inf, an outage on every
    symbol.  Trials never mix, so neither a singular trial nor the number of
    trials in a call changes the other trials' bits.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    flat = gains.reshape((-1, gains.shape[-1]))
    taps = gram_taps_from_gains(doppler_taps, delay_taps, flat, n, m)
    with np.errstate(all="ignore"):  # a singular trial's powers may be 0, < 0 or nan
        powers = _schur_errors(np.moveaxis(np.fft.fft(taps, axis=-1), -2, 0))
        blocks = np.fft.ifft(powers[::-1], axis=-1)
        blocks[-1] = taps[:, 0, :]
        lam = _schur_errors(np.moveaxis(blocks, -1, 0))[::-1]
    lam = np.moveaxis(lam, (0, 1), (-1, -2)).reshape(len(flat), n * m)
    ok = np.isfinite(lam).all(axis=-1) & (lam.min(axis=-1) >= SINGULARITY_EPS)
    lam[~ok] = 1.0
    return lam.reshape(gains.shape[:-1] + (n * m,)), ok.reshape(gains.shape[:-1])


def batch_static_lambdas(delay_taps, gains: np.ndarray, m: int):
    """M-point pivots for stacked static channels, shape (..., M), plus mask.

    A Doppler-free channel is the N=1 case of the block-circulant one.  Its
    Gram matrix is an M×M circulant, and λ_l is that circulant's Toeplitz
    prediction-error power of order M−1−l, so the pivots never decrease in
    l: the smallest is λ₀ = 1/φ, the reciprocal of the FD-LE noise
    enhancement.
    """
    return batch_dfe_lambdas(np.zeros_like(delay_taps), delay_taps, gains, 1, m)
