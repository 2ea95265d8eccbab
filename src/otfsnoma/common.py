"""Shared error types, the Monte Carlo estimate, and a unit helper."""

from dataclasses import dataclass

import numpy as np

# Magnitudes / pivots below this are treated as a numerically singular channel.
SINGULARITY_EPS = 1e-12

# Trials × grid cells per sub-batch.  The kernels and the FD-DFE pivots work
# through a block's trials in sub-batches of this size, so their working
# memory does not grow with the block: the pivots peak at about 120 B per
# trial per cell, about 8 MB a sub-batch, 256 trials at 16×16.  Twice this
# budget was as fast for FD-LE, but under FD-DFE the allocator handed the
# pivots' working memory back to the system after every sub-batch, and the
# 4096-trial 16×16 block took 8.5 page faults and about 78 µs per trial,
# against 0.5 and 58 µs here.
SUB_BATCH_CELLS = 1 << 16


def sub_batches(trials: int, cells: int) -> list:
    """Slices that cover range(trials) in order, each of at least one trial
    and at most SUB_BATCH_CELLS // ``cells`` trials."""
    step = max(1, SUB_BATCH_CELLS // cells)
    return [slice(lo, lo + step) for lo in range(0, trials, step)]


class ConfigError(ValueError):
    """A scenario configuration field failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class EstimatorUndefinedError(ValueError):
    """Too few reliable points for the requested estimator."""


@dataclass(frozen=True)
class McEstimate:
    """One Monte Carlo estimate with its normal-approximation uncertainty."""

    value: float
    std_error: float
    trials: int

    @property
    def ci_halfwidth(self) -> float:
        return 1.96 * self.std_error


def db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


