"""Noise enhancement of the FD-LE and FD-DFE equalizers, and Lemma 1's SINR.

Every receiver sees its equalizer through one value ν per symbol, and
:meth:`PowerAllocation.sinr` turns ν into the symbol's SINR.  FD-LE inverts
the diagonalized channel, so every symbol gets ν = φ, the mean of |D|⁻².
FD-DFE uses the factorization H^H H = L^H Λ L (L unit lower triangular, Λ
positive diagonal), so symbol i gets ν = 1/λ_i.  The last pivot always
equals Σ_p |h_p|², and the first equals 1/φ, which is why the first DFE
decision is exactly as reliable as FD-LE.  One singularity rule serves both:
a channel is singular iff φ > 1/SINGULARITY_EPS, which FD-DFE's pivots test
as λ₀ = 1/φ < SINGULARITY_EPS, and then every symbol gets ν = inf.

Every pivot lies in that bracket, 1/φ ≤ λ_i ≤ Σ_p |h_p|², with G = H^H H:

- λ_i = 1/[(G_{i:,i:})⁻¹]₀₀ ≥ 1/[G⁻¹]_ii = 1/φ: conditioning on fewer
  symbols cannot shrink the error, and every diagonal entry of the
  block-circulant G⁻¹ is φ;
- a Schur complement is at most its diagonal entry, G_ii = Σ_p |h_p|².

So a symbol's outage is known without its pivot when the SINRs at both
ends agree (``harness.u0_outage_counts``).

The pivots (:func:`batch_dfe_lambdas`) use the structure of H^H H,
block-circulant with circulant blocks: an FFT over delay splits it into
Hermitian-Toeplitz problems that Schur's recursion solves without forming
the NM×NM Gram matrix.  The Gram matrix is banded over Doppler, since every
path pair's Doppler lag k_q − k_p lies in [−h, h] mod N with h = max k_p −
min k_p (h = 1 for Table 1), and the recursion's generators stay zero
outside that band.  It is also a lattice (``transforms.coupling_lattice``,
which the harness's spectra share): with e = gcd(N, k_p − k_0 over the
paths) and d = gcd(M, l_p − l_0), every tap sits at a Doppler lag divisible
by e and a delay lag divisible by d, so G is the direct sum of e·d copies of
the (N/e)×(M/d) Gram matrix of the reduced profile's taps (d = 4, e = 1 for
Table 1 on 16×16).  A symbol's Schur complement given every later symbol
sees only its copy's later symbols, in the same order, so symbol (k, l)
has that problem's pivot of (k // e, l // d), not the (k mod N/e, l mod M/d)
at which it reads the periodic spectrum.  So the pivots come back one per
lattice symbol, NM/(e·d) a trial, the first and last being those of
symbols (0, 0) and (N−1, M−1).  The cost is O((NM/ed)(h′ + M/d)) per
trial, h′ = h/e.  The recursions run in one pass over every trial of a
call, in place on a per-thread workspace that persists across calls and
grows to the largest call so far, so repeated calls reuse its memory
instead of faulting new memory in.  The caller bounds each call, and with
it the workspace.
"""

from dataclasses import dataclass

import numpy as np

from .grid_channel import ChannelProfile
from .transforms import ThreadBuffers, coupling_lattice
# Unused here: bound so that the benchmark's tracer (bench/tracing.py), which
# wraps names where callers look them up, still finds it in this module.
from .transforms import dense_block_circulant  # noqa: F401

# A pivot below this, or φ above its reciprocal, marks a numerically singular channel.
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


def batch_noise_enhancement(power: np.ndarray, axis, out=None) -> np.ndarray:
    """FD-LE φ = mean |D|⁻² over ``axis`` of the eigenvalue powers |D|²,
    whose reciprocals go to ``out`` if given (``power`` itself may be it).

    A channel with φ > 1/SINGULARITY_EPS, or φ NaN, is singular and gets
    φ = inf, which puts every one of its symbols in outage.  It is FD-DFE's
    rule: the smallest pivot is λ₀ = 1/φ, and a pivot below SINGULARITY_EPS
    is singular.
    """
    with np.errstate(all="ignore"):  # only a singular channel's mean can warn
        phi = np.divide(1.0, power, out=out).mean(axis=axis)
    return np.where(phi <= 1.0 / SINGULARITY_EPS, phi, np.inf)


def gram_taps_from_gains(doppler_taps, delay_taps, gains, n: int, m: int,
                         out=None) -> np.ndarray:
    """(..., N, M) taps of the Gram operator H^H H (itself block-circulant),
    written to ``out`` if given.

    Path pair (p, q) contributes conj(h_p)h_q at Doppler (k_q−k_p) mod N and
    delay (l_q−l_p) mod M; gains may carry leading batch axes.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    if out is None:
        out = np.zeros(gains.shape[:-1] + (n, m), dtype=np.complex128)
    else:
        out.fill(0.0)
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


# One thread's pivot buffers, kept across calls: the complex Gram taps, two
# Schur generators and their two products with the reflection coefficient
# (the first product also holds each sweep's FFT input), and the float
# prediction-error powers.  Each grows to the largest call so far; the caller
# bounds its calls, so a thread's workspace stops growing after its first few.
_WORKSPACE = ThreadBuffers()


def _schur_errors(r: np.ndarray, out: np.ndarray, band=None) -> None:
    """Prediction-error powers P_0..P_L of Hermitian-Toeplitz autocorrelations,
    written to ``out``.

    ``r[0..L]`` holds the lags along axis 0, any batch axes after it, in any
    layout.  P_p is the Schur complement of one end element of the
    (p+1)×(p+1) Toeplitz matrix given the other p, i.e. 1/[T_{p+1}⁻¹]₀₀; it
    never increases with p.  Schur's recursion (Kailath & Sayed, SIAM Review
    1995) carries the forward and backward error correlations and never
    forms a predictor; a singular matrix gives a zero, negative or
    non-finite power.

    Both generators live in the thread's workspace, aligned so that each
    step updates them element by element: position q of the forward one
    gains k times position q of the backward one, and vice versa with
    conj(k).  With ``band`` = h, every lag of ``r`` outside [−h, h] mod L+1
    must be exactly zero.  The generators then stay zero outside a head
    window of h+1 positions and a tail window of h, so only those are
    updated, with the same operations, until the windows meet; the zeros
    never change.  ``band=None`` updates every position.  ``r`` is read only
    before the first step, so it may lie in the workspace's product buffers.
    """
    lags = r.shape[0]
    out[0] = r[0].real
    shape = (lags - 1,) + r.shape[1:]
    fwd, bwd, fwd_prod, bwd_prod = (_WORKSPACE.take(name, shape, np.complex128)
                                    for name in ("fwd", "bwd", "fwd_prod", "bwd_prod"))
    np.copyto(fwd, r[1:])
    np.copyto(bwd, r[:-1])
    for p in range(1, lags):
        length = lags - p  # of both generators; the forward one starts at p − 1
        f = fwd[p - 1:]
        k = -f[0] / bwd[0]
        kc = k.conj()
        out[p] = (bwd[0] + kc * f[0]).real
        if band is None or 2 * band + 3 > length:
            windows = ((0, length),)
        else:
            windows = ((0, band + 1), (length - band, length))
        for lo, hi in windows:
            if lo == hi:  # h = 0 has no tail window
                continue
            # forward positions 1.., backward positions ..length−2, from the old values
            flo, bhi = max(lo, 1), min(hi, length - 1)
            np.multiply(k, bwd[flo:hi], out=fwd_prod[:hi - flo])
            np.multiply(kc, f[lo:bhi], out=bwd_prod[:bhi - lo])
            np.add(f[flo:hi], fwd_prod[:hi - flo], out=f[flo:hi])
            np.add(bwd[lo:bhi], bwd_prod[:bhi - lo], out=bwd[lo:bhi])


def batch_dfe_lambdas(doppler_taps, delay_taps, gains: np.ndarray, n: int, m: int):
    """Pivots for a batch of channels from their (T, P) gains, one per symbol
    of the module docstring's (N/e)×(M/d) lattice, shape (T, NM/(e·d)), plus
    a (T,) validity mask.  Gains of any other shape are a ValueError.

    λ[k′M/d + l′] is lattice symbol (k′, l′)'s Schur complement in G = HᴴH
    given every later symbol, found from G's taps without forming G: N, M
    and h below read N/e, M/d and h/e.

    1. an FFT over delay splits G into M Hermitian-Toeplitz problems over
       Doppler, one per delay bin, each banded with h = max k_p − min k_p;
    2. each bin's order-(N−1−k) prediction-error power is that bin's
       eigenvalue of block k's M×M circulant Schur complement given blocks
       k+1..N−1;
    3. an IFFT over the bins gives that circulant's autocorrelation (block
       N−1 is the zero-Doppler Gram tap itself);
    4. its prediction-error powers of order M−1..0 are the pivots of
       symbols l = 0..M−1.

    The cost is O((NM/ed)(h′ + M/d)) per trial, in one pass over every trial
    of the call.  The working memory is the calling thread's workspace, about
    88 B per lattice cell of the largest call so far, kept across calls, which
    also holds the two FFTs' outputs, plus the returned pivots, a copy; the
    caller bounds each call.  A trial with any pivot non-finite
    or below SINGULARITY_EPS is singular: it gets ``ok=False`` and λ = 1 as a
    placeholder, which the caller turns into ν = inf, an outage on every
    symbol.  Trials never mix, so neither a singular trial nor the number of
    trials in a call changes the other trials' bits: the harness gathers the
    trials of a work unit whose pivot bracket leaves an outage flag open and
    passes at most one sub-batch's trials a call.
    """
    if np.ndim(gains) != 2 or np.shape(gains)[1] != len(delay_taps):
        raise ValueError(f"gains must be (T, P) with P = {len(delay_taps)} taps, "
                         f"got shape {np.shape(gains)}")
    profile = ChannelProfile(paths=tuple(zip(delay_taps, doppler_taps)))
    lattice, e, d = coupling_lattice(profile, n, m)
    band = int(np.ptp(doppler_taps)) // e  # exact: every Doppler tap is k₀ mod e
    n, m = n // e, m // d
    trials = len(gains)
    taps = gram_taps_from_gains(lattice.doppler_taps, lattice.delay_taps, gains, n, m,
                                out=_WORKSPACE.take("taps", (trials, n, m), np.complex128))
    # the delay sweep's errors overwrite the Doppler sweep's powers once the
    # IFFT has read them; both FFTs write into the buffer that a sweep
    # overwrites only after it has copied its input into the generators
    powers = _WORKSPACE.take("errors", (n, trials, m))
    errors = _WORKSPACE.take("errors", (m, n, trials))
    spectra = _WORKSPACE.take("fwd_prod", (trials, n, m), np.complex128)
    blocks = _WORKSPACE.take("fwd_prod", (n, trials, m), np.complex128)
    with np.errstate(all="ignore"):  # a singular trial's powers may be 0, < 0 or nan
        np.fft.fft(taps, axis=-1, out=spectra)
        _schur_errors(np.moveaxis(spectra, -2, 0), powers, band)
        np.fft.ifft(powers[::-1], axis=-1, out=blocks)
        blocks[-1] = taps[:, 0, :]
        _schur_errors(np.moveaxis(blocks, -1, 0), errors)
    # (T, N/e, M/d) in the workspace, copied so that it outlives the next call
    lam = np.moveaxis(errors[::-1], (0, 1), (-1, -2)).copy().reshape(trials, n * m)
    ok = np.isfinite(lam).all(axis=1) & (lam.min(axis=1) >= SINGULARITY_EPS)
    lam[~ok] = 1.0
    return lam, ok


def batch_static_lambdas(delay_taps, gains: np.ndarray, m: int):
    """(T, M/d) lattice pivots of static channels from their (T, P) gains,
    plus a (T,) mask: the N=1 case of :func:`batch_dfe_lambdas`.  λ_l is the
    circulant Gram block's Toeplitz prediction-error power of order M/d−1−l,
    so the pivots never decrease in l: the smallest is λ₀ = 1/φ."""
    return batch_dfe_lambdas(np.zeros_like(delay_taps), delay_taps, gains, 1, m)
