"""Closed-form outage of the uplink's fixed-rate NOMA users.

Under fixed-rate NOMA transmission with per-subchannel scheduling, the base
station's one-tap stage I leaves the scheduled users an SNR-independent
error floor; its exact value and the K!ε^K approximation are implemented here.
"""

import math


def closed_form_outage(k_users: int, epsilon: float, rho: float) -> float:
    """Fixed-rate outage of the per-subchannel-scheduled NOMA user.

    P_K = ∫₀^∞ e^{−t}(1 − e^{−ε(t+1/ρ)})^K dt = Σ C(K,k)(−1)^k e^{−kε/ρ}/(kε + 1).
    By parts, P_k = (q^k + kε·P_{k−1})/(1 + kε) with P₀ = 1, q = 1 − e^{−ε/ρ}:
    a convex combination of positive terms, so nothing cancels and the cost is
    O(K).  The two rounded weights can sum to 1 + 1 ulp, hence the cap at 1.
    """
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if rho <= 0:
        raise ValueError("rho must be positive")
    q = -math.expm1(-epsilon / rho)
    total = 1.0
    for k in range(1, k_users + 1):
        # weights 1/(1+kε) and kε/(1+kε), written so that kε = inf gives 0 and 1
        total = q**k / (1.0 + k * epsilon) + total / (1.0 + 1.0 / (k * epsilon))
    return min(total, 1.0)


def error_floor(k_users: int, epsilon: float) -> float:
    """High-SNR limit of :func:`closed_form_outage`, its ρ = ∞ case (q = 0):
    K!ε^K / ∏_{j=1}^{K}(1 + jε), so :func:`floor_approx` exceeds it by the
    relative gap ∏(1 + jε) − 1 exactly."""
    return closed_form_outage(k_users, epsilon, math.inf)


def floor_approx(k_users: int, epsilon: float) -> float:
    """Small-Kε approximation of the error floor, K!·ε^K.  Monotone decreasing
    in K while (K+1)ε < 1, so inviting more opportunistic users lowers it.

    Computed as the running product of jε, brought back into [0.5, 1) by an
    exact power of two after each factor, so no partial product overflows
    or underflows: the result is within 2K roundings of K!εᴷ, and it is inf,
    subnormal or 0 only where K!εᴷ itself is.
    """
    if k_users < 1:
        raise ValueError("k_users must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    mantissa, exponent = 1.0, 0
    for j in range(1, k_users + 1):
        mantissa, shift = math.frexp(mantissa * j * epsilon)
        exponent += shift
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf
