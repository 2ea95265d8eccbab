import numpy as np
import pytest

from otfsnoma import ChannelProfile
from otfsnoma.rng import substream
from oracles import ChannelRealization, Grid, sample_realization


@pytest.fixture
def grid16():
    return Grid(16, 16)


@pytest.fixture
def grid43():
    return Grid(4, 3)


@pytest.fixture
def rng():
    return substream(20260809, 0)


def random_realization(profile: ChannelProfile, seed: int) -> ChannelRealization:
    """Deterministic random realization for a given seed."""
    return sample_realization(profile, substream(seed, 0))


def flat_realization(gain=1.0 + 0j) -> ChannelRealization:
    """Single-tap channel at (delay, doppler) = (0, 0)."""
    return ChannelRealization(profile=ChannelProfile(paths=((0, 0),)),
                              gains=np.array([gain], dtype=np.complex128))


def worked_example_realization(h0=1 + 2j, h1=0.5 - 1j) -> ChannelRealization:
    """Two-path channel on the 4×3 grid: taps (0,0) and (delay 1, Doppler 3)."""
    return ChannelRealization(profile=ChannelProfile(paths=((0, 0), (1, 3))),
                              gains=np.array([h0, h1], dtype=np.complex128))
