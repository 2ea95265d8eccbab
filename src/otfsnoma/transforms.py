"""Symplectic transforms and the block-circulant delay-Doppler channel.

Conventions used throughout:

* Arrays indexed ``[k, l]`` (Doppler, delay) in the delay-Doppler plane and
  ``[n, m]`` (time, frequency) in the time-frequency plane; vectors stack
  row-major, so symbol (k, l) sits at position kM + l.
* Both ISFFT and SFFT carry the unitary 1/sqrt(NM) scaling, which makes the
  round trip exact, preserves norms, and keeps white noise white.
* A path at Doppler tap k_p and delay tap l_p shifts the input by
  (k - k_p) mod N, (l - l_p) mod M, i.e. the channel operator is
  H = sum_p h_p (S_N^{k_p} ⊗ C_M^{l_p}) with S, C the cyclic down-shift
  permutations.  As an N×N pattern of M×M blocks, block (r, c) equals
  A_{(r-c) mod N}, and the path lands in A_{k_p}.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .common import DomainMismatchError
from .grid_channel import ChannelRealization, Grid

# Dense NM×NM matrices are only materialized for oracle-scale problems.  The
# same bound caps FD-DFE grids, whose pivots hold NM values per block trial.
MAX_DENSE_CELLS = 4096


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
    prof.check_fits(grid)
    out = np.zeros((grid.n_doppler, grid.m_delay), dtype=np.complex128)
    out[prof.doppler_taps, prof.delay_taps] = realization.gains
    return out


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


@dataclass(frozen=True, eq=False)
class BlockCirculantChannel:
    """Sparse-tap view of the delay-Doppler channel operator H.

    The dense matrix is built lazily and only for oracle-scale grids; the
    production path applies H as a 2-D circular convolution via FFTs.
    """

    grid: Grid
    realization: ChannelRealization

    def __post_init__(self):
        self.realization.profile.check_fits(self.grid)

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
    prof.check_fits(grid)
    taps = np.zeros(grid.m_delay, dtype=np.complex128)
    taps[prof.delay_taps] = realization.gains
    return static_spectrum_from_taps(taps)
