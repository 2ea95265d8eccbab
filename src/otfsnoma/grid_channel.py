"""Sparse delay-Doppler channel realizations on the N×M OTFS grid.

The grid is two integers: N Doppler bins by M delay bins.  A channel is a
short list of integer-tap paths with i.i.d. complex Gaussian gains
normalized to unit total average power.  Fractional delay/Doppler is
excluded by construction: profiles carry integer taps only, so no
computation reads the subcarrier spacing Δf or the symbol time T, and the
physical units in :func:`table1_profile`'s docstring are documentation only.
"""

import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelProfile:
    """Integer delay/Doppler tap positions of a sparse multipath channel.

    ``paths`` is a tuple of ``(delay_tap, doppler_tap)`` pairs; all pairs must
    be distinct so the channel operator has exactly one entry per path.
    """

    paths: tuple

    def __post_init__(self):
        try:  # 2.5 is an error, not tap 2; numpy integers pass
            paths = tuple((operator.index(d), operator.index(k)) for d, k in self.paths)
        except TypeError:
            raise ValueError("tap indices must be integers") from None
        if not paths:
            raise ValueError("profile needs at least one path")
        if any(d < 0 or k < 0 for d, k in paths):
            raise ValueError("tap indices must be non-negative")
        if len(set(paths)) != len(paths):
            raise ValueError("duplicate (delay, doppler) tap pair")
        object.__setattr__(self, "paths", paths)

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    @property
    def delay_taps(self) -> np.ndarray:
        return np.array([d for d, _ in self.paths], dtype=np.intp)

    @property
    def doppler_taps(self) -> np.ndarray:
        return np.array([k for _, k in self.paths], dtype=np.intp)

    # These two compare Python ints, so a tap too large for an index array
    # fails the grid check instead of overflowing.
    def is_static(self) -> bool:
        return all(k == 0 for _, k in self.paths)

    def check_fits(self, n: int, m: int) -> None:
        """Raise if any tap falls outside the N×M grid."""
        delay, doppler = (max(taps) for taps in zip(*self.paths))
        if delay >= m:
            raise ValueError(f"delay tap {delay} exceeds grid m={m}")
        if doppler >= n:
            raise ValueError(f"doppler tap {doppler} exceeds grid n={n}")


def table1_profile() -> ChannelProfile:
    """Four-path high-mobility reference profile.

    Delay taps (2, 6, 10, 14) and Doppler taps (0, 0, 1, 1). The matching
    physical values on the default 16×16 grid at Δf = 7.5 kHz are delays of
    8.33/25/41.67/58.33 µs and Doppler shifts of 0/0/468.8/468.8 Hz; the
    integer taps are authoritative, the physical values documentation only.
    """
    return ChannelProfile(paths=((2, 0), (6, 0), (10, 1), (14, 1)))


def sample_gain_matrix(profile: ChannelProfile, rng: "np.random.Generator",
                       count: int) -> np.ndarray:
    """Draw ``count`` independent gain vectors, shape (count, P+1).

    Gains are i.i.d. circular complex Gaussian with variance 1/(P+1), so the
    expected total power per realization is one.  The (count, P+1, 2) normals
    are scaled in place and read as complex numbers, (re, im) pairs, so the
    draw holds 16 B per gain and no temporaries; the bits are those of
    ``scale * (raw[..., 0] + 1j * raw[..., 1])``.
    """
    p = profile.num_paths
    scale = np.sqrt(1.0 / (2.0 * p))
    raw = rng.standard_normal((count, p, 2))
    raw *= scale
    return raw.view(np.complex128)[..., 0]


