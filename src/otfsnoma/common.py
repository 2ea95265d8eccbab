"""Shared error types, small result containers, and unit helpers."""

from dataclasses import dataclass

import numpy as np

# Magnitudes / pivots below this are treated as a numerically singular channel.
SINGULARITY_EPS = 1e-12


class DomainMismatchError(ValueError):
    """A frame was presented in the wrong plane for the requested transform."""


class SingularChannelError(ArithmeticError):
    """The effective channel is numerically singular.

    Raised only by the dense oracles ``fd_le_equalize`` and
    ``cholesky_factors``.  Every receiver instead maps a singular channel to
    noise enhancement ν = inf, so its SINR is 0 and every symbol is in outage.
    """


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


def linear_to_db(x_lin):
    return 10.0 * np.log10(x_lin)
