import numpy as np
import pytest
from scipy import integrate

from otfsnoma import (ChannelProfile, PowerAllocation, closed_form_outage, error_floor,
                      floor_approx, make_grid, table1_profile)
from otfsnoma.harness import default_noma_profile
from otfsnoma.rng import substream
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.transforms import spectrum_from_taps, static_spectrum_from_taps
from oracles import (ChannelRealization, adaptive_rate, build_block_circulant, build_observation,
                     cholesky_factors, diagonalize, fd_dfe_sinrs, fd_le_sinr, fixed_rate_outage_mc,
                     uplink_stage1_sinr, uplink_stage2_sinrs, uplink_u0_outage)

from conftest import flat_realization, random_realization

U0_SMALL = ChannelProfile(paths=((2, 0), (6, 0), (5, 1), (7, 1)))  # fits 8x8


class TestStage1Sinr:
    def test_interference_free(self):
        assert uplink_stage1_sinr(1.0, 0.0, 5.0) == pytest.approx(5.0)

    def test_interference_limited_ceiling(self):
        sinr = uplink_stage1_sinr(1.0, 1.0, 1e9)
        assert abs(sinr - 1.0) < 1e-8

    def test_empirical_estimator_oracle(self):
        # push noise and interference draws through the one-tap estimator
        # and compare the measured SINR to the formula
        grid = make_grid(8, 8, 1.0)
        rng = substream(71, 0)
        h_i = 0.9 - 0.4j
        h_0 = 0.5 + 0.3j
        rho = 6.0
        draws = 200_000
        n, m = 8, 8
        err = 0.0
        u0_channel = np.full((n, m), h_0)
        noma_channel = np.full(m, h_i)
        for _ in range(draws // 1000):
            u0_symbols = np.sqrt(rho / 2) * (rng.standard_normal((n, m))
                                             + 1j * rng.standard_normal((n, m)))
            noma_symbols = np.sqrt(rho / 2) * (rng.standard_normal((m, n))
                                               + 1j * rng.standard_normal((m, n)))
            obs = build_observation(grid, u0_channel, u0_symbols, noma_channel,
                                    noma_symbols, rng)
            est = obs.values[:, 0] / h_i  # estimator for subchannel-1 symbols
            err += np.mean(np.abs(est - noma_symbols[0]) ** 2)
        err /= draws // 1000
        sinr_emp = rho / err
        ref = uplink_stage1_sinr(h_i, h_0, rho)
        assert sinr_emp == pytest.approx(ref, rel=0.02)


class TestAdaptiveRate:
    def test_unit_sinr(self):
        assert adaptive_rate(1.0, 0.0, 1.0) == pytest.approx(1.0)

    def test_zero_sinr(self):
        assert adaptive_rate(0.0, 1.0, 10.0) == 0.0

    def test_ergodic_mean_matches_quadrature(self):
        rho = 1000.0
        rng = substream(72, 0)
        draws = 1_000_000
        x = rng.exponential(1.0, draws)
        y = rng.exponential(1.0, draws)
        mc = np.mean(np.log2(1.0 + rho * x / (rho * y + 1.0)))
        ref, _ = integrate.dblquad(
            lambda xx, yy: np.log2(1 + rho * xx / (rho * yy + 1)) * np.exp(-xx - yy),
            0, 50, 0, 50)
        assert mc == pytest.approx(ref, rel=0.01)


class TestClosedForm:
    def test_k1_limit(self):
        assert closed_form_outage(1, 1.0, 1e12) == pytest.approx(0.5, rel=1e-6)

    def test_k2_limit(self):
        assert closed_form_outage(2, 1.0, 1e12) == pytest.approx(1.0 / 3.0, rel=1e-6)

    @pytest.mark.parametrize("k,eps,rho", [(1, 1.0, 10.0), (4, 0.5, 100.0),
                                           (16, 1.0, 1e4), (8, 2.0, 31.6),
                                           (24, 0.25, 1e5)])
    def test_quadrature_agreement(self, k, eps, rho):
        ref, _ = integrate.quad(
            lambda y: (1 - np.exp(-eps * (1 + rho * y) / rho)) ** k * np.exp(-y),
            0, np.inf, limit=200)
        assert abs(closed_form_outage(k, eps, rho) - ref) < 1e-8

    def test_monotone_and_bounded(self):
        for k in (1, 2, 4, 8, 16, 32):
            last = 1.0
            for rho_db in range(0, 61, 10):
                val = closed_form_outage(k, 1.0, 10.0 ** (rho_db / 10))
                assert 0.0 <= val <= 1.0
                assert val <= last + 1e-12
                last = val
            last = 0.0
            for eps in (0.1, 0.5, 1.0, 2.0, 10.0):
                val = closed_form_outage(k, eps, 100.0)
                assert 0.0 <= val <= 1.0
                assert val >= last - 1e-12
                last = val

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            closed_form_outage(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            closed_form_outage(1, 0.0, 1.0)


class TestErrorFloor:
    def test_k2_unit_epsilon(self):
        assert error_floor(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_k2_small_epsilon_exact(self):
        # 1 - 2/1.01 + 1/1.02
        assert error_floor(2, 0.01) == pytest.approx(1.9413706076e-4, rel=1e-9)

    def test_gap_to_approximation(self):
        f = error_floor(2, 0.01)
        a = floor_approx(2, 0.01)
        assert abs(f - a) / a < 0.03

    def test_floor_is_high_snr_limit(self):
        for k in (1, 4, 16):
            assert error_floor(k, 1.0) == pytest.approx(
                closed_form_outage(k, 1.0, 1e14), abs=1e-10)

    def test_floor_ordering_in_k(self):
        # floors strictly decrease with K while (K+1)eps < 1
        for eps in (0.01, 0.05):
            for k in range(1, 16):
                if (k + 1) * eps < 1:
                    assert error_floor(k + 1, eps) < error_floor(k, eps)


class TestFloorApprox:
    def test_values(self):
        assert floor_approx(1, 0.1) == pytest.approx(0.1)
        assert floor_approx(3, 0.1) == pytest.approx(0.006)

    def test_difference_positive(self):
        assert floor_approx(2, 0.1) - floor_approx(3, 0.1) > 0

    def test_next_order_correction(self):
        # the exact floor is K!eps^K (1 - eps*K(K+1)/2 + O(eps^2)): the
        # measured relative gap tracks eps*K(K+1)/2
        for k in (1, 2, 3, 4):
            eps = 0.01
            gap = (floor_approx(k, eps) - error_floor(k, eps)) / error_floor(k, eps)
            predicted = eps * k * (k + 1) / 2
            assert gap == pytest.approx(predicted, rel=0.2)


class TestStage2:
    def test_flat_channel(self):
        grid = make_grid(4, 4, 1.0)
        for eq in ("le", "dfe"):
            sinrs = uplink_stage2_sinrs(flat_realization(1.0), grid, 9.0, eq)
            assert sinrs.shape == (4, 4)
            assert np.allclose(sinrs, 9.0)

    def test_reduces_to_downlink_formulas_at_full_power(self):
        grid = make_grid(4, 4, 1.0)
        r = random_realization(ChannelProfile(paths=((0, 0), (1, 1), (2, 3))), 73)
        ch = build_block_circulant(r, grid)
        oma = PowerAllocation.oma()
        le = uplink_stage2_sinrs(r, grid, 5.0, "le")
        assert le[0, 0] == pytest.approx(fd_le_sinr(diagonalize(ch), 5.0, oma), rel=1e-12)
        dfe = uplink_stage2_sinrs(r, grid, 5.0, "dfe")
        ref = fd_dfe_sinrs(cholesky_factors(ch), 5.0, oma).reshape(4, 4)
        assert np.allclose(dfe, ref)

    def test_singular(self):
        grid = make_grid(2, 2, 1.0)
        dead = ChannelRealization(profile=ChannelProfile(paths=((0, 0),)),
                                  gains=np.array([0.0 + 0j]))
        assert np.all(uplink_stage2_sinrs(dead, grid, 5.0, "le") == 0.0)
        assert np.all(uplink_stage2_sinrs(dead, grid, 5.0, "dfe") == 0.0)


class TestFixedRateMc:
    def test_huge_rate_is_certain_outage(self):
        grid = make_grid(8, 8, 1.0)
        est = fixed_rate_outage_mc(grid, U0_SMALL, default_noma_profile(),
                                   k_users=1, rate_noma=20.0, rho=10.0,
                                   trials=2000, seed=1)
        assert est.value > 0.999

    def test_k1_unit_epsilon_half(self):
        grid = make_grid(8, 8, 1.0)
        est = fixed_rate_outage_mc(grid, U0_SMALL, default_noma_profile(),
                                   k_users=1, rate_noma=1.0, rho=1e6,
                                   trials=40_000, seed=2)
        assert est.value == pytest.approx(0.5, abs=0.01)

    def test_matches_closed_form_at_40db(self):
        grid = make_grid(16, 16, 7500.0)
        est = fixed_rate_outage_mc(grid, table1_profile(), default_noma_profile(),
                                   k_users=16, rate_noma=1.0, rho=1e4,
                                   trials=50_000, seed=3)
        ref = closed_form_outage(16, 1.0, 1e4)
        assert est.value == pytest.approx(ref, rel=0.02)

    def test_invalid_scheduler(self):
        grid = make_grid(4, 4, 1.0)
        with pytest.raises(ValueError):
            fixed_rate_outage_mc(grid, ChannelProfile(paths=((0, 0), (1, 1))),
                                 default_noma_profile(), k_users=4, rate_noma=1.0,
                                 rho=10.0, trials=100, seed=1, scheduler="round_robin")


class TestSchedulingStatistics:
    def test_selected_gain_cdf(self):
        # per-subchannel max over K users of Exp(1) gains: CDF (1-e^-x)^K
        k_users = 8
        grid = make_grid(4, 16, 1.0)
        prof = default_noma_profile()
        trials = 100_000
        rng = substream(74, 0)
        gk = sample_gain_matrix(prof, rng, trials * k_users).reshape(trials, k_users, -1)
        taps = np.zeros((trials, k_users, 16), dtype=complex)
        taps[:, :, prof.delay_taps] = gk
        ak = np.abs(static_spectrum_from_taps(taps)) ** 2
        sel = ak[:, :, 0].max(axis=1)  # one subchannel per trial: i.i.d. draws
        xs = np.sort(sel)
        ecdf = np.arange(1, trials + 1) / trials
        model = (1 - np.exp(-xs)) ** k_users
        assert np.abs(ecdf - model).max() < 0.01

    def test_independence_of_scheduled_and_u0_gains(self):
        k_users = 8
        grid = make_grid(16, 16, 7500.0)
        u0p, nomap = table1_profile(), default_noma_profile()
        trials = 100_000
        rng = substream(75, 0)
        g0 = sample_gain_matrix(u0p, rng, trials)
        taps0 = np.zeros((trials, 16, 16), dtype=complex)
        taps0[:, u0p.doppler_taps, u0p.delay_taps] = g0
        a0 = np.abs(spectrum_from_taps(taps0)) ** 2
        gk = sample_gain_matrix(nomap, rng, trials * k_users).reshape(trials, k_users, -1)
        tapsk = np.zeros((trials, k_users, 16), dtype=complex)
        tapsk[:, :, nomap.delay_taps] = gk
        ak = np.abs(static_spectrum_from_taps(tapsk)) ** 2
        m0 = 0
        sel_gain = ak[:, :, m0].max(axis=1)
        u0_gain = a0[:, 0, m0]
        corr = np.corrcoef(sel_gain, u0_gain)[0, 1]
        assert abs(corr) < 0.02


class TestU0Outage:
    def test_adaptive_equals_genie(self):
        grid = make_grid(8, 8, 1.0)
        kw = dict(grid=grid, u0_profile=U0_SMALL, noma_profile=default_noma_profile(),
                  k_users=8, rate_u0=0.5, rate_noma=1.0, rho=10.0, equalizer="le",
                  trials=5000, seed=4)
        a = uplink_u0_outage(mode="adaptive", **kw)
        b = uplink_u0_outage(mode="genie", **kw)
        assert a.value == b.value

    def test_fixed_mode_floor(self):
        grid = make_grid(8, 8, 1.0)
        est = uplink_u0_outage(grid, U0_SMALL, default_noma_profile(),
                               k_users=8, rate_u0=0.5, rate_noma=1.0, rho=1e9,
                               equalizer="le", mode="fixed", trials=30_000, seed=5)
        floor = error_floor(8, 1.0)
        assert est.value >= floor - 3 * est.std_error

    def test_genie_removes_floor(self):
        grid = make_grid(8, 8, 1.0)
        est = uplink_u0_outage(grid, U0_SMALL, default_noma_profile(),
                               k_users=8, rate_u0=0.5, rate_noma=1.0, rho=1e9,
                               equalizer="le", mode="genie", trials=30_000, seed=6)
        assert est.value < 1e-3

    def test_dfe_mode_runs(self):
        grid = make_grid(4, 4, 1.0)
        est = uplink_u0_outage(grid, ChannelProfile(paths=((0, 0), (1, 1))),
                               default_noma_profile(), k_users=4, rate_u0=0.5,
                               rate_noma=1.0, rho=100.0, equalizer="dfe", mode="fixed",
                               trials=2000, seed=7)
        assert 0.0 <= est.value <= 1.0

    def test_invalid_mode(self):
        grid = make_grid(4, 4, 1.0)
        with pytest.raises(ValueError):
            uplink_u0_outage(grid, ChannelProfile(paths=((0, 0), (1, 1))),
                             default_noma_profile(), k_users=4, rate_u0=0.5,
                             rate_noma=1.0, rho=10.0, equalizer="le", mode="oracle",
                             trials=10, seed=1)
