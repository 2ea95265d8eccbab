"""Closed-form outage of the uplink's fixed-rate NOMA users.

The base station's stage I detects the NOMA users' time-frequency cells with
one-tap SINRs, treating the high-mobility user as interference.  Under
fixed-rate NOMA transmission with per-subchannel scheduling, that outage has
an SNR-independent error floor; its exact alternating-sum expression and
K!ε^K approximation are implemented here.
"""

import math

import mpmath


def closed_form_outage(k_users: int, epsilon: float, rho: float) -> float:
    """Fixed-rate outage of the per-subchannel-scheduled NOMA user.

    P = Σ_{k=0}^{K} C(K,k)(−1)^k e^{−kε/ρ} / (kε + 1).

    The alternating sum cancels catastrophically (terms reach C(K, K/2)
    while the result can be ~1e−4), so it is evaluated in extended
    precision.
    """
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if rho <= 0:
        raise ValueError("rho must be positive")
    with mpmath.workdps(max(30, k_users + 25)):
        eps = mpmath.mpf(epsilon)
        total = mpmath.mpf(0)
        for k in range(k_users + 1):
            term = mpmath.binomial(k_users, k) * mpmath.exp(-k * eps / rho) / (k * eps + 1)
            total += term if k % 2 == 0 else -term
        return float(min(max(total, mpmath.mpf(0)), mpmath.mpf(1)))


def error_floor(k_users: int, epsilon: float) -> float:
    """High-SNR limit of :func:`closed_form_outage`, its ρ = ∞ case:
    Σ C(K,k)(−1)^k/(kε+1)."""
    return closed_form_outage(k_users, epsilon, math.inf)


def floor_approx(k_users: int, epsilon: float) -> float:
    """Small-Kε approximation of the error floor: K!·ε^K.

    Monotone decreasing in K while (K+1)ε < 1, so inviting more opportunistic
    users lowers the floor.
    """
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    return math.factorial(k_users) * epsilon**k_users


