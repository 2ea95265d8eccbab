"""Spectra of the delay-Doppler channel, computed from its sparse taps.

Arrays are indexed ``[k, l]`` (Doppler, delay) in the delay-Doppler plane,
and vectors stack row-major, so symbol (k, l) sits at position kM + l.  A
path at Doppler tap k_p and delay tap l_p shifts the input by
(k − k_p) mod N, (l − l_p) mod M, so the channel operator
H = Σ_p h_p (S_N^{k_p} ⊗ C_M^{l_p}), with S, C the cyclic down-shift
permutations, is block-circulant with circulant blocks: as an N×N pattern
of M×M blocks, block (r, c) equals A_{(r−c) mod N}, and the path lands in
A_{k_p}.  The detection transform F_N ⊗ F_M^H diagonalizes every such
operator, and its eigenvalues are the 2-D spectrum of the tap array.

A channel has only P ≤ 4 paths, so the simulator computes that spectrum
from the paths themselves (:func:`power_spectrum`), with a Doppler and a
delay steering factor per profile and grid, not by FFTs of a zero-filled
N×M tap array.  The FFT forms, :func:`spectrum_from_taps` and
:func:`static_spectrum_from_taps`, are the tests' independent references.
"""

import functools
import math

import numpy as np

# Dense NM×NM matrices are only materialized for oracle-scale problems.  The
# same bound caps FD-DFE grids, whose pivots hold NM values per block trial.
MAX_DENSE_CELLS = 4096


def dense_block_circulant(taps: np.ndarray) -> np.ndarray:
    """Materialize the NM×NM operator whose (kM+l, k'M+l') entry is
    taps[(k−k') mod N, (l−l') mod M].  Supports stacked leading axes.
    """
    n, m = taps.shape[-2:]
    if n * m > MAX_DENSE_CELLS:
        raise ValueError(f"refusing to materialize a dense {n * m}x{n * m} matrix")
    kd = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    ld = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    dense = taps[..., kd[:, None, :, None], ld[None, :, None, :]]
    return dense.reshape(taps.shape[:-2] + (n * m, n * m))


def spectrum_from_taps(taps: np.ndarray) -> np.ndarray:
    """D[k, l] = Σ_n Σ_m taps[n, m] e^{−j2πkn/N} e^{+j2πlm/M}.

    Note the opposite exponent signs on the two axes: the delay axis uses the
    conjugate transform relative to conventional OFDM.  Supports stacked
    leading axes.
    """
    m = taps.shape[-1]
    return np.fft.fft(np.fft.ifft(taps, axis=-1), axis=-2) * m


def static_spectrum_from_taps(taps: np.ndarray) -> np.ndarray:
    """M-point reduction for Doppler-free channels: D̃[l] = Σ_m taps[m] e^{+j2πlm/M}."""
    m = taps.shape[-1]
    return np.fft.ifft(taps, axis=-1) * m


@functools.lru_cache(maxsize=16)
def _steering(profile, n: int, m: int) -> tuple:
    """Read-only steering factors of ``profile`` on the N×M grid: the
    (N, P) Doppler phasors e^{−j2πk·k_p/N} and the (P, M) delay phasors
    e^{+j2πl·l_p/M}, each phase reduced exactly in integers first."""
    doppler = np.exp(-2j * np.pi / n * (np.outer(np.arange(n), profile.doppler_taps) % n))
    delay = np.exp(2j * np.pi / m * (np.outer(profile.delay_taps, np.arange(m)) % m))
    doppler.flags.writeable = delay.flags.writeable = False
    return doppler, delay


# Complex multiply-adds per BLAS call of :func:`power_spectrum`, which groups
# the trials of one spectrum product into calls of at most this size.  On a
# 2-vCPU box (numpy 2.4.6, OpenBLAS 0.3.31) zgemm ran on both cores from 2¹⁶
# multiply-adds per call: with 2¹⁶ here, the blocks that
# tests/test_transforms.py times in a fresh process spent 1.8 to 2.0 times
# their wall time in process time, and 1.0 times with 2¹⁵.  One 16×4×16
# product per trial cost 1.0 µs a trial, and one call for 32 trials 0.38 µs.
# A flat product over a whole sub-batch is faster in one process only
# because it takes both cores: two pool workers running
# downlink_sum_rate_le.cfg at 8192 trials per point then took 1.7 to 3.0 s,
# against 0.7 to 0.8 s for one worker and 0.4 s for two with this grouping.
SPECTRUM_CALL_MACS = 1 << 15


def power_spectrum(profile, gains: np.ndarray, n: int, m: int) -> np.ndarray:
    """Eigenvalue powers |D|² on the N×M grid, shape (..., N, M), of channels
    with ``profile``'s paths and (..., P) ``gains``.

    D[k, l] = Σ_p h_p e^{−j2πk·k_p/N} e^{+j2πl·l_p/M}, the convention of
    :func:`spectrum_from_taps`, is the product (A·diag(h))·B of the cached
    (N, P) Doppler and (P, M) delay steering factors.  A Doppler-free user's
    M-point spectrum D̃ is the N = 1 case, where A is exactly 1 and the
    gains are the rows themselves.

    A trial (leading-axis entry) has R = (its entries)·N rows.  The rows of
    max(1, SPECTRUM_CALL_MACS // (R·P·M)) consecutive trials share one BLAS
    product, small enough that OpenBLAS keeps it on one thread, and each
    output row gets the bits of a per-trial product, so a trial's bits do
    not depend on how many trials share the call.  A trial with one row
    keeps one call of its own: numpy sends a one-row product to gemv, whose
    bits differ from gemm's.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    doppler, delay = _steering(profile, n, m)
    npaths = gains.shape[-1]
    rows_per_trial = math.prod(gains.shape[1:-1]) * n
    if n == 1:  # the Doppler phasors are exactly 1
        rows = np.ascontiguousarray(gains).reshape((-1, npaths))
    else:  # each trial's (N, P) rows in turn
        rows = (gains[..., None, :] * doppler).reshape((-1, npaths))
    macs = rows_per_trial * npaths * m
    group = max(1, SPECTRUM_CALL_MACS // macs) if rows_per_trial > 1 else 1
    call_rows = group * rows_per_trial
    whole = len(rows) // call_rows * call_rows
    spectra = np.empty((len(rows), m), dtype=np.complex128)
    np.matmul(rows[:whole].reshape((-1, call_rows, npaths)), delay,
              out=spectra[:whole].reshape((-1, call_rows, m)))
    if whole < len(rows):
        np.matmul(rows[whole:], delay, out=spectra[whole:])
    power = np.abs(spectra)
    np.multiply(power, power, out=power)  # the bits of ** 2, without a second array
    return power.reshape(gains.shape[:-1] + (n, m))
