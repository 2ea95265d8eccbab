import math

import numpy as np
import pytest

from otfsnoma import ChannelProfile, PowerAllocation, table1_profile
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.harness import corollary1_outage
from otfsnoma.rng import substream
from otfsnoma.transforms import spectrum_from_taps
from oracles import (ChannelRealization, Domain, DownlinkTxFrame, Grid, LinkConfig,
                     build_block_circulant, build_tx_frame, cholesky_factors,
                     dfe_last_symbol_outage_mc, diagonalize, fd_dfe_sinrs, fd_le_sinr, isfft2,
                     noma_outage, noma_stage1, noma_stage2, u0_receive)

from conftest import flat_realization, random_realization

P34 = PowerAllocation.split(0.75)
G0, G1 = math.sqrt(P34.gamma0_sq), math.sqrt(P34.gamma1_sq)


def _static(seed, taps=(0, 1, 2, 3)):
    prof = ChannelProfile(paths=tuple((t, 0) for t in taps))
    return random_realization(prof, seed)


class TestLinkConfig:
    def test_thresholds(self):
        link = LinkConfig(rho=10.0, rate_u0=0.5, rate_noma=1.0)
        assert link.threshold_u0 == pytest.approx(2**0.5 - 1)
        assert link.threshold_noma == pytest.approx(1.0)

    @pytest.mark.parametrize("kw", [dict(rho=0.0), dict(rate_u0=0.0), dict(rate_noma=-1.0)])
    def test_validation(self, kw):
        base = dict(rho=1.0, rate_u0=0.5, rate_noma=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            LinkConfig(**base)


class TestBuildTxFrame:
    def test_oma_reduction(self):
        grid = Grid(4, 3)
        rng = substream(1, 0)
        u0 = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        tx = build_tx_frame(grid, u0, np.zeros((3, 4)), P34)
        assert tx.domain is Domain.TIME_FREQUENCY
        assert np.abs(tx.values - G0 * isfft2(u0)).max() < 1e-14

    def test_unit_noma_symbols_fill_cells(self):
        grid = Grid(4, 3)
        tx = build_tx_frame(grid, np.zeros((4, 3)), np.ones((3, 4)), P34)
        assert np.allclose(tx.values, G1)

    def test_mapping_rule(self):
        grid = Grid(4, 3)
        rng = substream(2, 0)
        u0 = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        noma = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        tx = build_tx_frame(grid, u0, noma, P34)
        resid = tx.values - G0 * isfft2(u0)
        for n in range(4):
            for m in range(3):
                assert resid[n, m] == pytest.approx(G1 * noma[m, n])

    def test_shape_mismatch(self):
        grid = Grid(4, 3)
        with pytest.raises(ValueError):
            build_tx_frame(grid, np.zeros((3, 4)), np.zeros((3, 4)), P34)
        with pytest.raises(ValueError):
            DownlinkTxFrame(grid, np.zeros((4, 3)), np.zeros((4, 3)), P34)

    def test_power_budget(self):
        # E|X|^2 = rho when both symbol classes carry power rho
        grid = Grid(8, 8)
        rng = substream(3, 0)
        rho = 4.0
        draws = 4000
        acc = 0.0
        for _ in range(draws // 400):
            u0 = np.sqrt(rho / 2) * (rng.standard_normal((400, 8, 8))
                                     + 1j * rng.standard_normal((400, 8, 8)))
            noma = np.sqrt(rho / 2) * (rng.standard_normal((400, 8, 8))
                                       + 1j * rng.standard_normal((400, 8, 8)))
            x = G0 * isfft2(u0) + G1 * np.swapaxes(noma, -1, -2)
            acc += np.mean(np.abs(x) ** 2)
        assert acc / (draws // 400) == pytest.approx(rho, rel=0.05)


class TestU0Receive:
    def test_oma_flat_scalar_case(self):
        grid = Grid(2, 2)
        link = LinkConfig(rho=3.0, rate_u0=2.0, rate_noma=1.0)
        tx = build_tx_frame(grid, np.ones((2, 2)), np.zeros((2, 2)), PowerAllocation.oma())
        rep = u0_receive(tx, flat_realization(1.0), substream(4, 0), "le",
                         PowerAllocation.oma(), link)
        assert np.allclose(rep.sinrs, 3.0)
        # log2(1 + 3) == 2 is not strictly below the rate: no outage
        assert not rep.outage.any()

    def test_always_one_when_threshold_exceeds_power_ratio(self):
        # eps0 > gamma0^2/gamma1^2 = 3 makes outage certain at every SNR
        grid = Grid(4, 4)
        rate = 2.1  # threshold 2^2.1 - 1 = 3.29 > 3
        for rho in (1.0, 100.0, 1e6):
            link = LinkConfig(rho=rho, rate_u0=rate, rate_noma=1.0)
            for seed in range(5):
                r = random_realization(ChannelProfile(paths=((0, 0), (1, 1), (2, 3))), seed)
                tx = build_tx_frame(grid, np.ones((4, 4)), np.zeros((4, 4)), P34)
                rep = u0_receive(tx, r, substream(seed, 1), "le", P34, link)
                assert rep.outage.all()

    def test_dfe_report_shapes_and_estimates(self):
        grid = Grid(4, 4)
        link = LinkConfig(rho=10.0, rate_u0=0.5, rate_noma=1.0)
        r = random_realization(ChannelProfile(paths=((0, 0), (1, 1), (2, 3))), 6)
        rng = substream(6, 1)
        u0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        tx = build_tx_frame(grid, u0, np.zeros((4, 4)), PowerAllocation.oma())
        rep = u0_receive(tx, r, substream(6, 2), "dfe", PowerAllocation.oma(), link)
        assert rep.sinrs.shape == (4, 4)
        assert rep.estimates is not None
        assert rep.estimates.domain is Domain.DELAY_DOPPLER
        # genie DFE estimate differs from the true superposition only by noise
        assert np.abs(rep.estimates.values - isfft2(u0) * 0).shape == (4, 4)

    def test_singular_channel_all_outage(self):
        grid = Grid(2, 2)
        link = LinkConfig(rho=10.0, rate_u0=0.5, rate_noma=1.0)
        dead = ChannelRealization(profile=ChannelProfile(paths=((0, 0),)),
                                  gains=np.array([0.0 + 0j]))
        tx = build_tx_frame(grid, np.ones((2, 2)), np.zeros((2, 2)), P34)
        for eq in ("le", "dfe"):
            rep = u0_receive(tx, dead, substream(7, 0), eq, P34, link)
            assert rep.outage.all()
            assert rep.estimates is None

    def test_bad_equalizer_rejected(self):
        grid = Grid(2, 2)
        link = LinkConfig(rho=1.0, rate_u0=0.5, rate_noma=1.0)
        tx = build_tx_frame(grid, np.ones((2, 2)), np.zeros((2, 2)), P34)
        with pytest.raises(ValueError):
            u0_receive(tx, flat_realization(), substream(1, 0), "mmse", P34, link)


class TestNomaStage1:
    def test_flat_reference(self):
        grid = Grid(4, 4)
        sinrs = noma_stage1(flat_realization(1.0), grid, 1.0, P34, "le")
        assert sinrs.shape == (4,)
        assert np.allclose(sinrs, 0.6)

    def test_doppler_invariance_and_cross_check(self):
        # the M-point LE SINR equals the full-size formula on the
        # block-diagonal channel built from the same static realization
        grid = Grid(5, 4)
        r = _static(seed=11, taps=(0, 1, 3))
        sinrs = noma_stage1(r, grid, 7.0, P34, "le")
        assert np.allclose(sinrs, sinrs[0])
        full = fd_le_sinr(diagonalize(build_block_circulant(r, grid)), 7.0, P34)
        assert sinrs[0] == pytest.approx(full, rel=1e-12)

    def test_dfe_variant_matches_static_sinrs(self):
        grid = Grid(4, 4)
        r = _static(seed=12)
        sinrs = noma_stage1(r, grid, 5.0, P34, "dfe")
        # dense oracle: the static channel is the N=1 case of the 2-D one
        ref = fd_dfe_sinrs(cholesky_factors(build_block_circulant(r, Grid(1, 4))),
                           5.0, P34)
        assert np.allclose(sinrs, ref)

    def test_singular_static_channel(self):
        grid = Grid(4, 4)
        dead = ChannelRealization(profile=ChannelProfile(paths=((0, 0),)),
                                  gains=np.array([0.0 + 0j]))
        assert np.all(noma_stage1(dead, grid, 1.0, P34, "le") == 0.0)
        assert np.all(noma_stage1(dead, grid, 1.0, P34, "dfe") == 0.0)


class TestNomaStage2:
    def test_unit_gain_reference(self):
        grid = Grid(4, 4)
        snr = noma_stage2(flat_realization(1.0), grid, 4.0, 0.25, user_index=1)
        assert snr == pytest.approx(1.0)

    def test_flat_channel_index_independent(self):
        grid = Grid(4, 4)
        h = 0.8 - 0.6j
        vals = [noma_stage2(flat_realization(h), grid, 10.0, 0.25, i) for i in (1, 2, 3, 4)]
        assert np.allclose(vals, 10.0 * 0.25 * abs(h) ** 2)

    def test_direct_sum_oracle(self):
        grid = Grid(4, 6)
        r = _static(seed=13, taps=(0, 2, 5))
        for i in (1, 3, 6):
            snr = noma_stage2(r, grid, 3.0, 0.25, i)
            d = sum(h * np.exp(2j * np.pi * (i - 1) * t / 6)
                    for (t, _), h in zip(r.profile.paths, r.gains))
            assert snr == pytest.approx(3.0 * 0.25 * abs(d) ** 2, rel=1e-12)

    def test_user_index_bounds(self):
        grid = Grid(4, 4)
        with pytest.raises(ValueError):
            noma_stage2(flat_realization(), grid, 1.0, 0.25, user_index=0)
        with pytest.raises(ValueError):
            noma_stage2(flat_realization(), grid, 1.0, 0.25, user_index=5)


class TestNomaOutage:
    def test_asymptotic_success(self):
        grid = Grid(4, 4)
        link = LinkConfig(rho=1e9, rate_u0=0.5, rate_noma=1.0)
        r = _static(seed=14)
        s1 = noma_stage1(r, grid, link.rho, P34, "le")
        s2 = noma_stage2(r, grid, link.rho, P34.gamma1_sq, 1)
        assert not noma_outage(s1, s2, link)

    def test_lemma2_condition_forces_outage(self):
        grid = Grid(4, 4)
        link = LinkConfig(rho=1e9, rate_u0=2.1, rate_noma=1.0)  # eps0 > 3
        r = _static(seed=15)
        s1 = noma_stage1(r, grid, link.rho, P34, "le")
        s2 = noma_stage2(r, grid, link.rho, P34.gamma1_sq, 1)
        assert noma_outage(s1, s2, link)

    def test_stage2_failure_forces_outage(self):
        link = LinkConfig(rho=10.0, rate_u0=0.5, rate_noma=1.0)
        assert noma_outage(np.full(4, 100.0), 0.5, link)  # stage 1 fine, stage 2 below eps=1
        assert not noma_outage(np.full(4, 100.0), 1.5, link)


class TestDfeLastSymbol:
    def test_matches_corollary_formula(self):
        est = dfe_last_symbol_outage_mc(table1_profile(), rho=1.0, power=P34,
                                        rate_u0=0.5, trials=200_000, seed=5)
        ref = corollary1_outage(3, 1.0, 0.75, 0.25, 0.5)
        assert abs(est.value - ref) < 4 * est.std_error + 1e-9

    def test_ordering_against_first_symbol(self):
        # per realization lambda_first <= lambda_last, so the first symbol's
        # outage dominates the last symbol's at any SNR
        from otfsnoma.equalizers import batch_dfe_lambdas

        prof = table1_profile()
        gains = sample_gain_matrix(prof, substream(16, 0), 400)
        lam, ok = batch_dfe_lambdas(prof.doppler_taps, prof.delay_taps, gains, 16, 16)
        assert ok.all()
        assert np.all(lam[:, 0] <= lam[:, -1] + 1e-12)
        assert np.all(lam.min(axis=1) >= 0)


class TestLemma2Bounds:
    def test_outage_sandwich(self):
        # MC LE outage sits between the single-cell lower bound and the
        # union upper bound, both with |D|^2 unit-exponential
        prof = table1_profile()
        n = m = 16
        rho = 100.0  # 20 dB
        eps0 = 2**0.5 - 1
        delta = P34.gamma0_sq - P34.gamma1_sq * eps0
        gains = sample_gain_matrix(prof, substream(17, 0), 200_000)
        taps = np.zeros((200_000, n, m), dtype=complex)
        taps[:, prof.doppler_taps, prof.delay_taps] = gains
        a = np.abs(spectrum_from_taps(taps)) ** 2
        phi = (1.0 / a).mean(axis=(1, 2))
        p_mc = np.mean(rho * P34.gamma0_sq / (rho * P34.gamma1_sq + phi) < eps0)
        low = 1 - np.exp(-eps0 / (n * m * rho * delta))
        high = min(1.0, n * m * (1 - np.exp(-eps0 / (rho * delta))))
        se = np.sqrt(p_mc * (1 - p_mc) / 200_000)
        assert low - 3 * se <= p_mc <= high + 3 * se
