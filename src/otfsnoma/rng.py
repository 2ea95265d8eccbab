"""Counter-based random substreams for reproducible parallel Monte Carlo.

Every unit of work derives its own Philox stream from the master seed and a
small integer path (e.g. ``(snr_index, block_index)``), so results are
bit-identical no matter how trials are distributed over workers.
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def _mix64(h: int, value: int) -> int:
    # splitmix64 finalizer; decorrelates nearby path components
    h = (h ^ (value & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
    h ^= h >> 31
    h = h * 0x94D049BB133111EB & _MASK64
    h ^= h >> 29
    return h


def substream(seed: int, *path: int) -> "np.random.Generator":
    """Return an independent generator keyed by ``(seed, *path)``.

    The 128-bit Philox key is ``seed`` in the high word and a hash of the
    path in the low word, so distinct paths give statistically independent
    streams and the same path always reproduces the same stream.
    """
    h = 0x9E3779B97F4A7C15
    for v in path:
        h = _mix64(h, int(v) + 1)
    key = ((int(seed) & _MASK64) << 64) | h
    return np.random.Generator(np.random.Philox(key=key))
