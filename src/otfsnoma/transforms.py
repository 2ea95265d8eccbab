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
"""

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
