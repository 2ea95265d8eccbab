"""Correctness checks on the CSV curves of one scenario.

Every expected value here is derived in this file from the model of the
paper (P Rayleigh taps of variance 1/P each, unitary spectra), not taken from
``otfsnoma``: the Erlang CDF of Corollary 1, the closed-form uplink outage
and the uplink ergodic rate by quadrature.  Each check returns the SNR
indices it rejects with a message, so a caller can count failed points.
"""

import csv
import io
import math

import mpmath
import numpy as np

# Two-sided tail mass of a normal variable beyond 4 standard deviations.
FOUR_SIGMA_ALPHA = math.erfc(4.0 / math.sqrt(2.0))
SUM_RATE_TOL = 1e-9
PIVOT_RTOL = 1e-8

SUM_RATE_METRICS = ("outage_sum_rate_noma", "outage_sum_rate_oma")
DOWNLINK_METRICS = (
    "noma_outage", "outage_sum_rate_noma", "outage_sum_rate_oma",
    "u0_outage", "u0_outage_first", "u0_outage_last",
    "u0_outage_oma", "u0_outage_oma_first", "u0_outage_oma_last",
)
UPLINK_FIXED_METRICS = (
    "noma_outage", "outage_sum_rate_noma", "outage_sum_rate_oma",
    "u0_outage", "u0_outage_stage2",
)
UPLINK_ADAPTIVE_METRICS = ("ergodic_rate_gain", "u0_outage")


def parse_curves(csv_bytes: bytes) -> dict:
    """{metric: {snr_db: (value, ci_halfwidth, trials)}} from emitted CSV."""
    reader = csv.reader(io.StringIO(csv_bytes.decode("utf-8")))
    header = next(reader)
    if header != ["snr_db", "metric", "value", "ci_halfwidth", "trials"]:
        raise ValueError(f"unexpected CSV header {header!r}")
    curves: dict = {}
    for row in reader:
        curves.setdefault(row[1], {})[float(row[0])] = (float(row[2]), float(row[3]), int(row[4]))
    return curves


def rows_by_snr(csv_bytes: bytes) -> dict:
    """{snr_db: sorted CSV lines at that SNR}, for byte-level comparison per point."""
    out: dict = {}
    for line in csv_bytes.decode("utf-8").splitlines()[1:]:
        out.setdefault(float(line.split(",", 1)[0]), []).append(line)
    return {snr: sorted(lines) for snr, lines in out.items()}


# ---------------------------------------------------------------------------
#  Analytic oracles
# ---------------------------------------------------------------------------


def erlang_cdf(shape: int, x: float) -> float:
    """P(Gamma(shape, 1) <= x)."""
    return float(mpmath.gammainc(shape, 0, x, regularized=True))


def dfe_last_outage(paths: int, rho: float, g0sq: float, g1sq: float, rate: float) -> float:
    """Outage of the last FD-DFE symbol (Corollary 1).

    Its pivot is Σ|h_p|², so P·Σ|h_p|² ~ Gamma(P, 1) for P equal-power paths
    and the symbol is in outage when ρ·γ₀²λ/(ργ₁²λ + 1) < ε₀.
    """
    eps0 = 2.0**rate - 1.0
    delta = g0sq - g1sq * eps0
    if delta <= 0:
        return 1.0
    return erlang_cdf(paths, paths * eps0 / (rho * delta))


def uplink_sinr_cdf(k_users: int, s, rho):
    """P(ρX/(ρY+1) < s), X the max of K Exp(1) and Y ~ Exp(1):
    Σ_k C(K,k)(−1)^k e^{−ks/ρ}/(ks+1), evaluated at 50 digits."""
    with mpmath.workdps(50):
        s, rho = mpmath.mpf(s), mpmath.mpf(rho)
        return sum(mpmath.binomial(k_users, k) * (-1) ** k * mpmath.exp(-k * s / rho) / (k * s + 1)
                   for k in range(k_users + 1))


def uplink_rate_moments(k_users: int, rho: float, nodes: int = 200):
    """(E[g(S)], E[g(S)²]) with g = log2(1+·) and S = ρX/(ρY+1), X the max
    of K Exp(1) and Y ~ Exp(1), by 2-D Gauss-Legendre quadrature.

    X runs over [0, 60]; Y over ln y in [ln 1e-12, ln 60], so the near-log
    singularity of g at y ≈ 1/ρ is resolved at any SNR.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = 30.0 * (t + 1.0)
    fx = k_users * (-np.expm1(-x)) ** (k_users - 1) * np.exp(-x) * 30.0 * w
    lo, hi = math.log(1e-12), math.log(60.0)
    y = np.exp(lo + (hi - lo) * (t + 1.0) / 2.0)
    fy = y * np.exp(-y) * (hi - lo) / 2.0 * w
    g = np.log2(1.0 + rho * x[:, None] / (rho * y[None, :] + 1.0))
    weight = fx[:, None] * fy[None, :]
    return float((g * weight).sum()), float((g * g * weight).sum())


def binomial_tails(count: int, trials: int, p: float):
    """(P(B <= count), P(B >= count)) for B ~ Binomial(trials, p)."""
    if p <= 0.0:
        return 1.0, (1.0 if count == 0 else 0.0)
    if p >= 1.0:
        return (1.0 if count == trials else 0.0), 1.0
    lower = 1.0 if count >= trials else float(
        mpmath.betainc(trials - count, count + 1, 0, 1 - p, regularized=True))
    upper = 1.0 if count <= 0 else float(
        mpmath.betainc(count, trials - count + 1, 0, p, regularized=True))
    return lower, upper


def bernoulli_consistent(value: float, trials: int, p: float) -> bool:
    """Exact two-sided binomial test of a per-trial hit rate at the 4σ level.

    The normal 4·√(p(1−p)/trials) window rejects a single hit whenever
    p·trials < 1/16, which a correct curve shows about p·trials of the time;
    the exact tail keeps each side's false-alarm rate below FOUR_SIGMA_ALPHA/2.
    """
    count = round(value * trials)
    lower, upper = binomial_tails(count, trials, p)
    return min(lower, upper) >= FOUR_SIGMA_ALPHA / 2


# ---------------------------------------------------------------------------
#  Checks on one scenario's curves
# ---------------------------------------------------------------------------


def _expected_metrics(cfg) -> tuple:
    if cfg.direction == "downlink":
        return DOWNLINK_METRICS
    return UPLINK_ADAPTIVE_METRICS if cfg.rate_mode == "adaptive" else UPLINK_FIXED_METRICS


def _fail(failures: dict, si: int, message: str):
    failures.setdefault(si, []).append(message)


def check_shape(cfg, curves: dict, failures: dict):
    """Every expected metric at every SNR, asked-for trials, values in range."""
    expected = _expected_metrics(cfg)
    extra = sorted(set(curves) - set(expected))
    for si, snr in enumerate(cfg.snr_db):
        for name in extra:
            _fail(failures, si, f"unexpected metric {name}")
        for name in expected:
            row = curves.get(name, {}).get(snr)
            if row is None:
                _fail(failures, si, f"{name} missing")
                continue
            value, _, trials = row
            if trials != cfg.trials:
                _fail(failures, si, f"{name} trials {trials} != {cfg.trials}")
            if name == "ergodic_rate_gain":
                hi = math.inf
            elif name in SUM_RATE_METRICS:
                hi = cfg.rate_u0 + cfg.rate_noma
            else:
                hi = 1.0
            if not 0.0 <= value <= hi:
                _fail(failures, si, f"{name}={value} outside [0, {hi}]")


def check_sum_rates(cfg, curves: dict, failures: dict):
    """Outage sum rates are the rate-weighted success probabilities."""
    if cfg.direction == "uplink" and cfg.rate_mode == "adaptive":
        return
    oma_u0 = "u0_outage_oma" if cfg.direction == "downlink" else "u0_outage_stage2"
    for si, snr in enumerate(cfg.snr_db):
        v = {name: curves[name][snr][0] for name in
             ("u0_outage", "noma_outage", oma_u0, "outage_sum_rate_noma", "outage_sum_rate_oma")}
        noma = cfg.rate_u0 * (1 - v["u0_outage"]) + cfg.rate_noma * (1 - v["noma_outage"])
        oma = cfg.rate_u0 * (1 - v[oma_u0])
        if abs(v["outage_sum_rate_noma"] - noma) > SUM_RATE_TOL:
            _fail(failures, si, f"outage_sum_rate_noma={v['outage_sum_rate_noma']} != {noma}")
        if abs(v["outage_sum_rate_oma"] - oma) > SUM_RATE_TOL:
            _fail(failures, si, f"outage_sum_rate_oma={v['outage_sum_rate_oma']} != {oma}")


def _check_order(cfg, curves: dict, failures: dict, high: str, low: str):
    for si, snr in enumerate(cfg.snr_db):
        if curves[high][snr][0] < curves[low][snr][0]:
            _fail(failures, si, f"{high} < {low}")


def check_orderings(cfg, curves: dict, failures: dict):
    """Orderings that hold draw by draw, hence exactly in the sample means.

    The NOMA power split lowers U0's SINR against OMA on the same draws; the
    first FD-DFE pivot never exceeds the last; the uplink joint outage
    contains the stage-II outage.
    """
    if cfg.direction == "downlink":
        _check_order(cfg, curves, failures, "u0_outage", "u0_outage_oma")
        if cfg.equalizer == "dfe":
            _check_order(cfg, curves, failures, "u0_outage_first", "u0_outage_last")
            _check_order(cfg, curves, failures, "u0_outage_oma_first", "u0_outage_oma_last")
    elif cfg.rate_mode == "fixed":
        _check_order(cfg, curves, failures, "u0_outage", "u0_outage_stage2")


def _standard_error(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def check_analytic(cfg, curves: dict, failures: dict):
    """Monte Carlo curves against oracles derived here, within 4 standard errors."""
    eps_i = 2.0**cfg.rate_noma - 1.0
    g1sq = 1.0 - cfg.gamma0_sq
    paths = cfg.u0_profile.num_paths
    t = cfg.trials
    for si, snr in enumerate(cfg.snr_db):
        rho = 10.0 ** (snr / 10.0)

        def value(name):
            return curves[name][snr][0]

        if cfg.direction == "downlink" and cfg.equalizer == "dfe":
            for name, g0, g1 in (("u0_outage_last", cfg.gamma0_sq, g1sq),
                                 ("u0_outage_oma_last", 1.0, 0.0)):
                p = dfe_last_outage(paths, rho, g0, g1, cfg.rate_u0)
                if not bernoulli_consistent(value(name), t, p):
                    _fail(failures, si, f"{name}={value(name)} vs Corollary 1 {p:.6g}")
        if cfg.direction == "downlink" and cfg.scheduler == "random":
            # Stage II alone fails w.p. 1−e^{−εᵢ/(ργ₁²)}: the scheduled user is
            # drawn independently of its Exp(1) subchannel gain.
            p = 1.0 - math.exp(-eps_i / (rho * g1sq))
            if value("noma_outage") < p - 4.0 * _standard_error(p, t):
                _fail(failures, si,
                      f"noma_outage={value('noma_outage')} below stage-II bound {p:.6g}")
        if cfg.direction == "uplink" and cfg.scheduler == "per_subchannel":
            if cfg.rate_mode == "fixed":
                p = float(uplink_sinr_cdf(cfg.k_users, eps_i, rho))
                if abs(value("noma_outage") - p) > 4.0 * _standard_error(p, t):
                    _fail(failures, si,
                          f"noma_outage={value('noma_outage')} vs closed form {p:.6g}")
            else:
                mean, second = uplink_rate_moments(cfg.k_users, rho)
                se = math.sqrt(max(second - mean * mean, 0.0) / t)
                if abs(value("ergodic_rate_gain") - mean) > 4.0 * se:
                    _fail(failures, si, f"ergodic_rate_gain={value('ergodic_rate_gain')} "
                                        f"vs quadrature {mean:.6g}")


CHECKS = (check_sum_rates, check_orderings, check_analytic)


def check_curves(cfg, csv_bytes: bytes) -> dict:
    """{snr_index: [messages]} for every point that fails a check."""
    failures: dict = {}
    curves = parse_curves(csv_bytes)
    check_shape(cfg, curves, failures)
    if failures:
        return failures  # later checks assume every metric is present
    for check in CHECKS:
        check(cfg, curves, failures)
    return failures


def pivot_mismatches(doppler_taps, delay_taps, gains, n: int, m: int, lam, ok) -> int:
    """Traced FD-DFE trials whose first pivot differs from 1/φ or whose last
    pivot differs from Σ|h_p|², relative 1e-8; φ = mean 1/|D|² from an FFT here."""
    taps = np.zeros(gains.shape[:1] + (n, m), dtype=np.complex128)
    taps[:, doppler_taps, delay_taps] = gains
    power = np.abs(np.fft.fft2(taps)) ** 2
    phi = (1.0 / power).mean(axis=(1, 2))
    energy = (np.abs(gains) ** 2).sum(axis=1)
    first_bad = np.abs(lam[:, 0] * phi - 1.0) > PIVOT_RTOL
    last_bad = np.abs(lam[:, -1] / energy - 1.0) > PIVOT_RTOL
    return int(((first_bad | last_bad) & ok).sum())
