"""Discrete OTFS grids and sparse delay-Doppler channel realizations.

The time-frequency plane is sampled at (nT, mΔf) and the delay-Doppler plane
at (k/(NT), l/(MΔf)); a channel is a short list of integer-tap paths with
i.i.d. complex Gaussian gains normalized to unit total average power.
Fractional delay/Doppler is excluded by construction: profiles carry integer
taps only.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Sampling description shared by both planes.

    ``symbol_duration`` (T) and ``subcarrier_spacing`` (Δf) fix the
    time-frequency lattice; the delay-Doppler resolutions follow as
    1/(MΔf) and 1/(NT).
    """

    n_doppler: int
    m_delay: int
    symbol_duration: float
    subcarrier_spacing: float

    def __post_init__(self):
        if self.n_doppler < 1 or self.m_delay < 1:
            raise ValueError("grid dimensions must be >= 1")
        if self.symbol_duration <= 0 or self.subcarrier_spacing <= 0:
            raise ValueError("symbol duration and subcarrier spacing must be positive")

    @property
    def delay_resolution(self) -> float:
        return 1.0 / (self.m_delay * self.subcarrier_spacing)

    @property
    def doppler_resolution(self) -> float:
        return 1.0 / (self.n_doppler * self.symbol_duration)

    @property
    def frame_duration(self) -> float:
        return self.n_doppler * self.symbol_duration

    @property
    def bandwidth(self) -> float:
        return self.m_delay * self.subcarrier_spacing

    @property
    def cells(self) -> int:
        return self.n_doppler * self.m_delay


def make_grid(n: int, m: int, delta_f: float) -> Grid:
    """Build an N×M grid with T = 1/Δf (one symbol spans one subcarrier period)."""
    if int(n) != n or int(m) != m:
        raise ValueError("grid dimensions must be integers")
    if n < 1 or m < 1:
        raise ValueError("grid dimensions must be >= 1")
    if delta_f <= 0:
        raise ValueError("subcarrier spacing must be positive")
    return Grid(int(n), int(m), 1.0 / float(delta_f), float(delta_f))


@dataclass(frozen=True)
class ChannelProfile:
    """Integer delay/Doppler tap positions of a sparse multipath channel.

    ``paths`` is a tuple of ``(delay_tap, doppler_tap)`` pairs; all pairs must
    be distinct so the channel operator has exactly one entry per path.
    """

    paths: tuple

    def __post_init__(self):
        paths = tuple((int(d), int(k)) for d, k in self.paths)
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

    def check_fits(self, grid: Grid) -> None:
        """Raise if any tap falls outside the grid."""
        delay, doppler = (max(taps) for taps in zip(*self.paths))
        if delay >= grid.m_delay:
            raise ValueError(f"delay tap {delay} exceeds grid m_delay={grid.m_delay}")
        if doppler >= grid.n_doppler:
            raise ValueError(f"doppler tap {doppler} exceeds grid n_doppler={grid.n_doppler}")


def table1_profile() -> ChannelProfile:
    """Four-path high-mobility reference profile.

    Delay taps (2, 6, 10, 14) and Doppler taps (0, 0, 1, 1). The matching
    physical values on the default 16×16 grid at Δf = 7.5 kHz are delays of
    8.33/25/41.67/58.33 µs and Doppler shifts of 0/0/468.8/468.8 Hz; the
    integer taps are authoritative, the physical values documentation only.
    """
    return ChannelProfile(paths=((2, 0), (6, 0), (10, 1), (14, 1)))


def sample_gain_matrix(profile: ChannelProfile, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` independent gain vectors, shape (count, P+1).

    Gains are i.i.d. circular complex Gaussian with variance 1/(P+1), so the
    expected total power per realization is one.
    """
    p = profile.num_paths
    scale = np.sqrt(1.0 / (2.0 * p))
    raw = rng.standard_normal((count, p, 2))
    return scale * (raw[..., 0] + 1j * raw[..., 1])


