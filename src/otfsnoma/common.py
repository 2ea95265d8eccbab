"""Shared error types, the Monte Carlo estimate, and a unit helper."""

from dataclasses import dataclass

import numpy as np

# Magnitudes / pivots below this are treated as a numerically singular channel.
SINGULARITY_EPS = 1e-12


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


