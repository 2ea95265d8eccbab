"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria with Monte
Carlo content use fixed seeds and stated tolerances; nothing is calibrated
at run time.
"""

import math

import numpy as np

from otfsnoma import (ChannelProfile, CurvePoint, PowerAllocation, corollary1_outage,
                      diversity_slope, emit_csv, error_floor, floor_approx, run_scenario,
                      table1_profile)
from otfsnoma.uplink import closed_form_outage
from otfsnoma.harness import ScenarioConfig, default_noma_profile
from otfsnoma.rng import substream
from oracles import (Grid, build_block_circulant, cholesky_factors, dfe_last_symbol_outage_mc,
                     diagonalize, fd_le_sinr, fixed_rate_outage_mc, isfft2, noise_enhancement,
                     sample_realization, sfft2)

P34 = PowerAllocation.split(0.75)
G0, G1 = math.sqrt(P34.gamma0_sq), math.sqrt(P34.gamma1_sq)
GRID16 = Grid(16, 16)


def _criterion(num: int, desc: str, checks: dict):
    ok = all(checks.values())
    print(f"\n[ACCEPTANCE] criterion {num:02d} ({desc}): {'PASS' if ok else 'FAIL'}")
    failed = {k: v for k, v in checks.items() if not v}
    assert ok, f"criterion {num} failed checks: {sorted(failed)}"


def _scenario(**overrides):
    base = dict(direction="downlink", n=16, m=16, k_users=16, gamma0_sq=0.75,
                rate_u0=0.5, rate_noma=1.0, equalizer="le",
                snr_db=(0.0, 10.0), trials=10_000, seed=31_337)
    base.update(overrides)
    return ScenarioConfig(**base)


def test_criterion_01_transform_algebra_oracles():
    checks = {}
    rng = substream(101, 0)

    # ISFFT/SFFT round trip on the production grid
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    checks["round_trip"] = np.abs(sfft2(isfft2(x)) - x).max() < 1e-12

    # dense diagonalization oracles for every grid with N, M <= 4
    def unitary_dft(n):
        return np.fft.fft(np.eye(n), norm="ortho")

    worst_off = 0.0
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            prof = ChannelProfile(paths=tuple(dict.fromkeys(
                ((0, 0), (1 % m, 1 % n), (m - 1, n - 1)))))
            r = sample_realization(prof, substream(102, n, m))
            ch = build_block_circulant(r, Grid(n, m))
            t = np.kron(unitary_dft(n), unitary_dft(m).conj().T)
            conj = t @ ch.matrix @ t.conj().T
            d = diagonalize(ch).d_values.reshape(-1)
            off = np.abs(conj - np.diag(np.diag(conj))).max()
            worst_off = max(worst_off, off, np.abs(np.diag(conj) - d).max())
    checks["diagonalization_offdiag"] = worst_off < 1e-10

    # Cholesky reconstruction, last-pivot identity, trace identity
    r = sample_realization(table1_profile(), substream(103, 0))
    small = ChannelProfile(paths=((2, 0), (3, 0), (1, 1), (0, 1)))
    r4 = sample_realization(small, substream(103, 1))
    ch4 = build_block_circulant(r4, Grid(4, 4))
    f = cholesky_factors(ch4)
    gram = ch4.matrix.conj().T @ ch4.matrix
    rec = f.l_factor.conj().T @ np.diag(f.lam) @ f.l_factor
    checks["cholesky_reconstruction"] = np.abs(rec - gram).max() < 1e-10
    checks["last_pivot"] = abs(f.lam[-1] - r4.total_power) < 1e-12

    d4 = diagonalize(ch4)
    dinv = np.diag(1.0 / d4.d_values.reshape(-1))
    phi_trace = float(np.trace(dinv @ dinv.conj().T).real) / 16
    checks["trace_identity"] = abs(phi_trace - noise_enhancement(d4)) < 1e-12

    _criterion(1, "transform/algebra oracle suite", checks)


def test_criterion_02_lemma1_empirical_sinrs():
    # fixed reference channel, 1e5 noise draws, per-symbol measured SINRs
    r = sample_realization(table1_profile(), substream(201, 0))
    ch = build_block_circulant(r, GRID16)
    d = diagonalize(ch)
    rho = 10.0
    draws = 100_000
    chunk = 10_000
    rng = substream(201, 1)
    err = np.zeros((16, 16))
    for _ in range(draws // chunk):
        x0 = np.sqrt(rho / 2) * (rng.standard_normal((chunk, 16, 16))
                                 + 1j * rng.standard_normal((chunk, 16, 16)))
        xtf = np.sqrt(rho / 2) * (rng.standard_normal((chunk, 16, 16))
                                  + 1j * rng.standard_normal((chunk, 16, 16)))
        z = np.sqrt(0.5) * (rng.standard_normal((chunk, 16, 16))
                            + 1j * rng.standard_normal((chunk, 16, 16)))
        x_dd = G0 * x0 + G1 * sfft2(xtf)
        out = isfft2(sfft2(ch.apply(x_dd) + z) / d.d_values)
        err += np.mean(np.abs(out - G0 * x0) ** 2, axis=0)
    err /= draws // chunk
    sinr_emp = rho * P34.gamma0_sq / err
    ref = fd_le_sinr(d, rho, P34)
    rel = np.abs(sinr_emp / ref - 1.0)
    checks = {
        "matches_closed_form_2pct": rel.max() < 0.02,
        "mutually_equal_2pct": (sinr_emp.max() - sinr_emp.min()) / ref < 0.02,
    }
    _criterion(2, "Lemma 1 per-symbol empirical FD-LE SINRs", checks)


def test_criterion_03_corollary1_oracle_agreement():
    rate = 0.5
    trials = 1_000_000
    checks = {}
    for snr_db in (0.0, 2.0, 4.0, 6.0, 8.0):
        rho = 10.0 ** (snr_db / 10.0)
        analytic = corollary1_outage(3, rho, 0.75, 0.25, rate)
        if analytic < 1e-3:
            continue
        est = dfe_last_symbol_outage_mc(table1_profile(), rho, P34, rate,
                                        trials=trials, seed=301)
        checks[f"{snr_db:g}dB_rel5pct"] = abs(est.value - analytic) / analytic < 0.05

    # full factorization pipeline cross-check at one point (smaller trials)
    cfg = _scenario(equalizer="dfe", snr_db=(0.0,), trials=6000, seed=303)
    pts = {p.metric: p for p in run_scenario(cfg, workers=2)}
    point = pts["u0_outage_last"]
    analytic0 = corollary1_outage(3, 1.0, 0.75, 0.25, rate)
    se = point.ci_halfwidth / 1.96 if point.ci_halfwidth else 1e-9
    checks["pipeline_cross_check_4se"] = abs(point.value - analytic0) < 4 * se
    _criterion(3, "Corollary 1 vs Monte Carlo (DFE last symbol)", checks)


def test_criterion_04_diversity_slopes():
    checks = {}
    # FD-LE slope over the last reliable decade
    cfg = _scenario(snr_db=(24.0, 30.0, 36.0, 42.0), trials=300_000, seed=11)
    pts = [p for p in run_scenario(cfg, workers=2) if p.metric == "u0_outage"]
    le_slope = diversity_slope(pts)
    checks["le_slope_in_band"] = -1.15 <= le_slope <= -0.85

    # FD-DFE last-symbol slope (multipath order P0 + 1 = 4)
    dfe_pts = []
    for snr_db in (6.0, 8.0, 10.0, 12.0):
        rho = 10.0 ** (snr_db / 10.0)
        est = dfe_last_symbol_outage_mc(table1_profile(), rho, P34, 0.5,
                                        trials=2_000_000, seed=401)
        dfe_pts.append(CurvePoint(snr_db=snr_db, metric="u0_outage_last",
                                  value=est.value, ci_halfwidth=est.ci_halfwidth,
                                  trials_used=est.trials))
    dfe_slope = diversity_slope(dfe_pts)
    checks["dfe_last_slope_in_band"] = -4.6 <= dfe_slope <= -3.4
    print(f"  [info] le_slope={le_slope:.3f}, dfe_last_slope={dfe_slope:.3f}")
    _criterion(4, "Lemma 2 / Fig. 2a diversity slopes", checks)


def test_criterion_05_sum_rate_shape():
    cfg = _scenario(snr_db=(0.0, 10.0, 20.0, 30.0, 40.0, 50.0), trials=20_000, seed=505)
    by = {(p.metric, p.snr_db): p.value for p in run_scenario(cfg, workers=2)}
    checks = {
        "noma_reaches_r0_plus_ri": abs(by[("outage_sum_rate_noma", 50.0)] - 1.5) <= 0.03,
        "oma_saturates_at_r0": abs(by[("outage_sum_rate_oma", 50.0)] - 0.5) <= 0.01,
        "low_snr_crossover": by[("outage_sum_rate_noma", 0.0)] < by[("outage_sum_rate_oma", 0.0)],
    }
    _criterion(5, "Fig. 1 outage sum-rate shape", checks)


def test_criterion_06_uplink_closed_form():
    checks = {}
    floors_mc = []
    for k in (4, 8, 16):
        mc40 = fixed_rate_outage_mc(GRID16, table1_profile(), default_noma_profile(),
                                    k_users=k, rate_noma=1.0, rho=1e4,
                                    trials=200_000, seed=601)
        cf = closed_form_outage(k, 1.0, 1e4)
        checks[f"k{k}_40dB_rel2pct"] = abs(mc40.value - cf) / cf < 0.02

        mc60 = fixed_rate_outage_mc(GRID16, table1_profile(), default_noma_profile(),
                                    k_users=k, rate_noma=1.0, rho=1e6,
                                    trials=200_000, seed=602)
        floor = error_floor(k, 1.0)
        checks[f"k{k}_floor_3se"] = abs(mc60.value - floor) < 3 * mc60.std_error
        floors_mc.append(mc60.value)
    checks["floors_decrease_in_k"] = floors_mc[0] > floors_mc[1] > floors_mc[2]
    _criterion(6, "uplink fixed-rate closed form and error floor", checks)


def test_criterion_07_floor_approximation():
    # Sampled over the stated region including its boundary.  The exact floor
    # is K!eps^K (1 - eps*K(K+1)/2 + O(eps^2)), so the relative gap reaches
    # eps*K(K+1)/2 = 0.05*(K+1)/2 at the K*eps = 0.05 boundary: 7.5% for K=2
    # and 12.5% for K=4.  The 5% bound therefore cannot hold over the whole
    # region; see the project decision log for the analysis.
    checks = {}
    for k in (1, 2, 3, 4):
        for frac in (0.2, 0.5, 1.0):
            eps = frac * 0.05 / k
            rel = abs(error_floor(k, eps) - floor_approx(k, eps)) / error_floor(k, eps)
            checks[f"k{k}_eps{eps:.4f}_rel5pct"] = rel < 0.05
    _criterion(7, "error-floor approximation accuracy", checks)


def test_criterion_08_dfe_unequal_protection():
    snrs = (0.0, 6.0, 12.0, 18.0)
    dfe = run_scenario(_scenario(equalizer="dfe", snr_db=snrs, trials=6000, seed=808),
                       workers=2)
    le = run_scenario(_scenario(equalizer="le", snr_db=snrs, trials=6000, seed=808),
                      workers=2)
    dfe_by = {(p.metric, p.snr_db): p for p in dfe}
    le_by = {(p.metric, p.snr_db): p for p in le}
    checks = {}
    for snr in snrs:
        first = dfe_by[("u0_outage_first", snr)]
        last = dfe_by[("u0_outage_last", snr)]
        checks[f"{snr:g}dB_ordering"] = first.value >= last.value
        le_point = le_by[("u0_outage", snr)]
        se = max(first.ci_halfwidth, le_point.ci_halfwidth) / 1.96 + 1e-12
        checks[f"{snr:g}dB_first_equals_le_3se"] = abs(first.value - le_point.value) <= 3 * se
    _criterion(8, "Remark 4 / Fig. 2b DFE symbol ordering", checks)


def test_criterion_09_multiuser_diversity():
    cfg = ScenarioConfig(direction="downlink", n=16, m=16, k_users=4, gamma0_sq=0.75,
                         rate_u0=0.5, rate_noma=1.0, equalizer="le", scheduler="greedy",
                         snr_db=(21.0, 24.0, 27.0), trials=2_000_000, seed=912)
    pts = [p for p in run_scenario(cfg, workers=2) if p.metric == "noma_outage"]
    slope = diversity_slope(pts)
    print(f"  [info] greedy K=4 noma slope={slope:.3f}")
    _criterion(9, "Corollary 3 multi-user diversity (greedy, K=4)",
               {"slope_magnitude_ge_3": slope <= -3.0})


def test_criterion_10_worker_determinism(tmp_path):
    cfg = _scenario(trials=2000, snr_db=(0.0, 10.0), seed=1001)
    outs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"workers{workers}.csv"
        emit_csv(run_scenario(cfg, workers=workers), path)
        outs.append(path.read_bytes())
    _criterion(10, "bit-exact CSV across 1/4/8 workers",
               {"identical_bytes": outs[0] == outs[1] == outs[2]})
