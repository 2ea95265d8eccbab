import ast
import concurrent.futures
import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otfsnoma import ChannelProfile, PowerAllocation, table1_profile
from otfsnoma import equalizers
from otfsnoma.equalizers import (batch_dfe_lambdas, batch_noise_enhancement, batch_static_lambdas,
                                 gram_taps_from_gains, static_gram_taps)
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.harness import (BRACKET_MAX_COND, BRACKET_SLACK, MAX_SNR_DB, MAX_TRIAL_CELLS,
                              SUB_BATCH_CELLS)
from otfsnoma.rng import substream
from otfsnoma.transforms import dense_block_circulant, power_spectrum, static_spectrum_from_taps
from oracles import (ChannelRealization, Domain, Frame, GenieFeedback, Grid, HardDecisionFeedback,
                     SingularChannelError, build_block_circulant, cholesky_factors, diagonalize,
                     fd_dfe_equalize, fd_dfe_sinrs, fd_le_equalize, fd_le_sinr, isfft2,
                     noise_enhancement, qpsk_alphabet, schur_errors_reference, sfft2,
                     symbol_pivots, user_noise_enhancement)

from conftest import flat_realization, random_realization, worked_example_realization

P34 = PowerAllocation.split(0.75)
G0, G1 = math.sqrt(P34.gamma0_sq), math.sqrt(P34.gamma1_sq)


def _random_channel(n, m, seed, paths=None):
    if paths is None:
        paths = ((0, 0), (1 % m, 1 % n), (min(2, m - 1), min(3, n - 1)))
        paths = tuple(dict.fromkeys(paths))
    r = random_realization(ChannelProfile(paths=paths), seed)
    return build_block_circulant(r, Grid(n, m))


class TestPowerAllocation:
    def test_reference_split(self):
        p = PowerAllocation.split(0.75)
        assert p.gamma1_sq == pytest.approx(0.25)
        assert p.gamma0_sq == 0.75

    def test_oma_limit_allowed(self):
        p = PowerAllocation.oma()
        assert p.gamma0_sq == 1.0 and p.gamma1_sq == 0.0

    @pytest.mark.parametrize("g0,g1", [(0.75, 0.0), (0.5, 0.4), (0.0, 1.0), (1.1, -0.1)])
    def test_invalid_splits(self, g0, g1):
        with pytest.raises(ValueError):
            PowerAllocation(gamma0_sq=g0, gamma1_sq=g1)


class TestFdLeEqualize:
    def test_flat_channel_identity(self):
        grid = Grid(4, 4)
        ch = build_block_circulant(flat_realization(1.0), grid)
        rng = substream(1, 0)
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = Frame(grid, ch.apply(s), Domain.DELAY_DOPPLER)
        out = fd_le_equalize(y, diagonalize(ch))
        assert np.abs(out.values - s).max() < 1e-12

    def test_worked_example_matches_dense_inverse(self):
        grid = Grid(4, 3)
        ch = build_block_circulant(worked_example_realization(), grid)
        rng = substream(2, 0)
        s = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        y = Frame(grid, ch.apply(s), Domain.DELAY_DOPPLER)
        out = fd_le_equalize(y, diagonalize(ch))
        assert np.abs(out.values - s).max() < 1e-10
        dense = np.linalg.solve(ch.matrix, y.values.reshape(-1)).reshape(4, 3)
        assert np.abs(out.values - dense).max() < 1e-10

    def test_zero_in_zero_out(self):
        grid = Grid(4, 4)
        ch = _random_channel(4, 4, 31)
        y = Frame(grid, np.zeros((4, 4), dtype=complex), Domain.DELAY_DOPPLER)
        out = fd_le_equalize(y, diagonalize(ch))
        assert np.allclose(out.values, 0.0)

    def test_singular_channel_raises(self):
        grid = Grid(2, 2)
        dead = ChannelRealization(profile=ChannelProfile(paths=((0, 0),)),
                                  gains=np.array([0.0 + 0j]))
        d = diagonalize(build_block_circulant(dead, grid))
        y = Frame(grid, np.ones((2, 2), dtype=complex), Domain.DELAY_DOPPLER)
        with pytest.raises(SingularChannelError):
            fd_le_equalize(y, d)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (4, 4), (8, 8), (2, 8), (8, 2), (3, 5), (16, 4)])
    def test_equals_dense_inverse_up_to_64_cells(self, n, m):
        grid = Grid(n, m)
        ch = _random_channel(n, m, seed=n * 31 + m)
        rng = substream(n * 100 + m, 0)
        y = Frame(grid, rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)),
                  Domain.DELAY_DOPPLER)
        out = fd_le_equalize(y, diagonalize(ch))
        dense = np.linalg.solve(ch.matrix, y.values.reshape(-1)).reshape(n, m)
        assert np.abs(out.values - dense).max() < 1e-9


class TestFdLeSinr:
    def test_reference_value(self):
        grid = Grid(4, 4)
        d = diagonalize(build_block_circulant(flat_realization(1.0), grid))
        assert fd_le_sinr(d, 1.0, P34) == pytest.approx(0.6)

    def test_interference_free_reduction(self):
        # with gamma1 = 0 the SINR reduces to rho*gamma0^2/phi; on a flat
        # unit channel that is just the received signal power
        grid = Grid(4, 4)
        d = diagonalize(build_block_circulant(flat_realization(1.0), grid))
        assert fd_le_sinr(d, 7.5, PowerAllocation.oma()) == pytest.approx(7.5)
        phi = noise_enhancement(d)
        rho, g0_sq = 10.0, 0.75
        assert rho * g0_sq / (rho * 0.0 + phi) == pytest.approx(7.5)

    def test_singular_gives_zero(self):
        grid = Grid(2, 2)
        dead = ChannelRealization(profile=ChannelProfile(paths=((0, 0),)),
                                  gains=np.array([0.0 + 0j]))
        d = diagonalize(build_block_circulant(dead, grid))
        assert fd_le_sinr(d, 10.0, P34) == 0.0

    def test_empirical_sinr_oracle(self):
        # measure the interference-plus-noise power at the equalizer output
        # over many draws and compare to the closed form
        n = m = 4
        grid = Grid(n, m)
        ch = _random_channel(n, m, seed=8)
        d = diagonalize(ch)
        rho = 8.0
        draws = 1_000_000
        rng = substream(88, 0)
        err_power = np.zeros((n, m))
        chunk = 100_000
        sample_frame = None
        for _ in range(draws // chunk):
            x0 = np.sqrt(rho / 2) * (rng.standard_normal((chunk, n, m))
                                     + 1j * rng.standard_normal((chunk, n, m)))
            xtf = np.sqrt(rho / 2) * (rng.standard_normal((chunk, n, m))
                                      + 1j * rng.standard_normal((chunk, n, m)))
            z = np.sqrt(0.5) * (rng.standard_normal((chunk, n, m))
                                + 1j * rng.standard_normal((chunk, n, m)))
            x_dd = G0 * x0 + G1 * sfft2(xtf)
            y = ch.apply(x_dd) + z
            out = isfft2(sfft2(y) / d.d_values)  # batched fd_le_equalize
            err_power += np.mean(np.abs(out - G0 * x0) ** 2, axis=0)
            sample_frame = (y[0], out[0])
        err_power /= draws // chunk
        sinr_emp = rho * P34.gamma0_sq / err_power
        sinr_ref = fd_le_sinr(d, rho, P34)
        assert np.abs(sinr_emp / sinr_ref - 1.0).max() < 0.02
        # the batched chain above is exactly fd_le_equalize
        y_frame = Frame(grid, sample_frame[0], Domain.DELAY_DOPPLER)
        assert np.abs(fd_le_equalize(y_frame, d).values - sample_frame[1]).max() < 1e-12


class TestCholeskyFactors:
    def test_flat_channel(self):
        grid = Grid(3, 3)
        h = 0.6 - 0.8j
        f = cholesky_factors(build_block_circulant(flat_realization(h), grid))
        assert np.allclose(f.l_factor, np.eye(9))
        assert np.allclose(f.lam, abs(h) ** 2)

    def test_last_pivot_identity(self):
        grid = Grid(4, 4)
        for seed in range(5):
            r = random_realization(ChannelProfile(paths=((0, 0), (1, 1), (3, 2), (2, 3))), seed)
            f = cholesky_factors(build_block_circulant(r, grid))
            assert abs(f.lam[-1] - r.total_power) < 1e-12

    def test_dense_reconstruction(self):
        grid = Grid(4, 4)
        ch = _random_channel(4, 4, seed=17)
        f = cholesky_factors(ch)
        gram = ch.matrix.conj().T @ ch.matrix
        rec = f.l_factor.conj().T @ np.diag(f.lam) @ f.l_factor
        assert np.abs(rec - gram).max() < 1e-10
        assert np.allclose(np.diag(f.l_factor), 1.0)
        assert np.abs(np.triu(f.l_factor, 1)).max() == 0.0

    def test_rank_deficient_raises(self):
        grid = Grid(2, 2)
        dead = ChannelRealization(profile=ChannelProfile(paths=((0, 0),)),
                                  gains=np.array([0.0 + 0j]))
        with pytest.raises(SingularChannelError):
            cholesky_factors(build_block_circulant(dead, grid))


class TestFdDfeEqualize:
    def test_flat_channel_is_one_tap(self):
        grid = Grid(2, 2)
        h = 0.9 + 0.5j
        ch = build_block_circulant(flat_realization(h), grid)
        rng = substream(4, 0)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = Frame(grid, ch.apply(x) + z, Domain.DELAY_DOPPLER)
        est = fd_dfe_equalize(y, ch, GenieFeedback(x))
        assert np.abs(est.values - (x + z / h)).max() < 1e-12

    def test_noiseless_recovery(self):
        grid = Grid(4, 4)
        ch = _random_channel(4, 4, seed=5)
        rng = substream(5, 1)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = Frame(grid, ch.apply(x), Domain.DELAY_DOPPLER)
        est = fd_dfe_equalize(y, ch, GenieFeedback(x))
        assert np.abs(est.values - x).max() < 1e-10

    def test_genie_matches_dense_expansion(self):
        grid = Grid(4, 3)
        ch = _random_channel(4, 3, seed=6)
        f = cholesky_factors(ch)
        rng = substream(6, 1)
        x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        z = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        y = Frame(grid, ch.apply(x) + z, Domain.DELAY_DOPPLER)
        est = fd_dfe_equalize(y, ch, GenieFeedback(x), f)
        hmat = ch.matrix
        noise_term = f.l_factor @ np.linalg.solve(hmat.conj().T @ hmat,
                                                  hmat.conj().T @ z.reshape(-1))
        assert np.abs(est.values.reshape(-1) - (x.reshape(-1) + noise_term)).max() < 1e-10

    def test_hard_decision_equals_genie_when_noiseless(self):
        grid = Grid(4, 4)
        ch = _random_channel(4, 4, seed=7)
        rng = substream(7, 1)
        alphabet = qpsk_alphabet(1.0)
        x = rng.choice(alphabet, size=(4, 4))
        y = Frame(grid, ch.apply(x), Domain.DELAY_DOPPLER)
        est_hd = fd_dfe_equalize(y, ch, HardDecisionFeedback(alphabet))
        est_genie = fd_dfe_equalize(y, ch, GenieFeedback(x))
        assert np.abs(est_hd.values - est_genie.values).max() < 1e-10

    def test_unknown_feedback_rejected(self):
        grid = Grid(2, 2)
        ch = build_block_circulant(flat_realization(1.0), grid)
        y = Frame(grid, np.ones((2, 2), dtype=complex), Domain.DELAY_DOPPLER)
        with pytest.raises(TypeError):
            fd_dfe_equalize(y, ch, feedback="genie")


class TestDfeSinrs:
    def test_flat_equals_le(self):
        grid = Grid(4, 4)
        ch = build_block_circulant(flat_realization(1.0), grid)
        f = cholesky_factors(ch)
        sinrs = fd_dfe_sinrs(f, 2.0, P34)
        le = fd_le_sinr(diagonalize(ch), 2.0, P34)
        assert np.allclose(sinrs, le)

    def test_last_symbol_uses_total_power(self):
        grid = Grid(4, 4)
        r = random_realization(table1_profile(), seed=3)
        small = ChannelRealization(
            profile=ChannelProfile(paths=((2, 0), (3, 0), (1, 1), (0, 1))), gains=r.gains)
        f = cholesky_factors(build_block_circulant(small, grid))
        rho = 5.0
        expect = rho * P34.gamma0_sq / (rho * P34.gamma1_sq + 1.0 / small.total_power)
        assert f.lam[-1] == pytest.approx(small.total_power, abs=1e-12)
        assert fd_dfe_sinrs(f, rho, P34)[-1] == pytest.approx(expect, rel=1e-12)

    def test_interference_noise_covariance_oracle(self):
        # C_cov = rho*gamma1^2 I + Λ^{-1}: dense evaluation of L G^{-1} L^H
        grid = Grid(4, 4)
        ch = _random_channel(4, 4, seed=11)
        f = cholesky_factors(ch)
        gram = ch.matrix.conj().T @ ch.matrix
        rho = 3.0
        cov = rho * P34.gamma1_sq * np.eye(16) + f.l_factor @ np.linalg.solve(gram, f.l_factor.conj().T)
        ref = rho * P34.gamma1_sq * np.eye(16) + np.diag(1.0 / f.lam)
        assert np.abs(cov - ref).max() < 1e-8

    def test_first_pivot_equals_le_noise_factor(self):
        # lambda_1 = 1/phi exactly, so the first DFE decision matches FD-LE
        grid = Grid(4, 4)
        for seed in range(4):
            ch = _random_channel(4, 4, seed=100 + seed)
            f = cholesky_factors(ch)
            phi = noise_enhancement(diagonalize(ch))
            assert f.lam[0] * phi == pytest.approx(1.0, rel=1e-10)


def _static_lambdas(r, grid):
    lam, ok = batch_static_lambdas(r.profile.delay_taps, r.gains[None], grid.m_delay)
    assert ok[0]
    return lam[0]


class TestStaticDfe:
    def test_flat(self):
        grid = Grid(4, 4)
        sinrs = P34.sinr(1.0, 1.0 / _static_lambdas(flat_realization(1.0), grid))
        assert np.allclose(sinrs, 0.6)

    def test_two_tap_hand_cholesky(self):
        grid = Grid(4, 2)
        ha, hb = 0.8 + 0.2j, -0.3 + 0.5j
        r = ChannelRealization(profile=ChannelProfile(paths=((0, 0), (1, 0))),
                               gains=np.array([ha, hb]))
        lam = _static_lambdas(r, grid)
        s = abs(ha) ** 2 + abs(hb) ** 2
        c = 2 * (np.conj(ha) * hb).real
        assert lam[-1] == pytest.approx(s, abs=1e-12)
        assert lam[0] == pytest.approx(s - abs(c) ** 2 / s, rel=1e-12)

    def test_last_static_pivot(self):
        grid = Grid(4, 8)
        r = random_realization(ChannelProfile(paths=((0, 0), (1, 0), (5, 0))), seed=9)
        lam = _static_lambdas(r, grid)
        assert lam[-1] == pytest.approx(r.total_power, abs=1e-12)
        assert np.all(lam > 0)


@pytest.mark.parametrize("path", ["batch_static_lambdas", "batch_dfe_lambdas_n1"])
def test_singular_user_in_batch(path):
    # Equal gains at delays 0 and M/2 give D[l] = h(1 + (-1)^l), which is zero
    # at every odd bin: that user's Gram block fails Cholesky, and only that
    # user is flagged.
    m, delays, shape = 8, np.array([0, 4]), (6, 5)
    gains = sample_gain_matrix(ChannelProfile(paths=((0, 0), (4, 0))), substream(31, 0),
                               6 * 5).reshape(shape + (2,))
    nulled = gains.copy()
    nulled[2, 3] = 0.6 - 0.3j
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(dense_block_circulant(static_gram_taps(delays, nulled[2, 3], m)[None]))

    def pivots(g):
        g = g.reshape(-1, 2)
        if path == "batch_static_lambdas":
            lam, ok = batch_static_lambdas(delays, g, m)
        else:
            lam, ok = batch_dfe_lambdas(np.zeros_like(delays), delays, g, 1, m)
        return lam.reshape(shape + (-1,)), ok.reshape(shape)

    lam, ok = pivots(gains)
    lam_null, ok_null = pivots(nulled)
    others = np.ones(shape, dtype=bool)
    others[2, 3] = False
    assert ok.all()
    assert np.array_equal(ok_null, others)
    assert np.array_equal(lam_null[others], lam[others])


def _static_power(delay_taps, gains, m):
    taps = np.zeros(gains.shape[:-1] + (m,), dtype=np.complex128)
    taps[..., delay_taps] = gains
    return np.abs(static_spectrum_from_taps(taps)) ** 2


@st.composite
def _static_channels(draw):
    """(m, profile, gains): M <= 16 and 1-4 distinct random Doppler-free taps."""
    m = draw(st.integers(1, 16))
    delays = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=min(4, m), unique=True))
    prof = ChannelProfile(paths=tuple((d, 0) for d in delays))
    return m, prof, random_realization(prof, draw(st.integers(0, 2**32))).gains


_EVEN_TAPS = ChannelProfile(paths=((0, 0), (2, 0)))


@settings(max_examples=100, deadline=None)
@given(channel=_static_channels())
@example(channel=(10, _EVEN_TAPS, random_realization(_EVEN_TAPS, 0).gains))
def test_static_min_pivot_is_le_noise_enhancement(channel):
    # A static user's pivot λ_l is its circulant Gram block C's Toeplitz
    # prediction-error power of order M-1-l, and those never increase with
    # the order, so the smallest pivot is λ₀ = 1/[C⁻¹]₀₀ = 1/φ: the FD-DFE
    # stage I needs only φ.  Both sides are float64 evaluations of [C⁻¹]₀₀,
    # each good to a small multiple of cond(C)·eps, cond(C) = max|D|²/min|D|²
    # (Schur's recursion on a positive-definite Toeplitz matrix is weakly
    # stable); 16·cond·eps covers the 4.5·cond·eps seen on 190k draws with
    # M <= 16, near-null ones included.  Pivots can tie exactly: taps only
    # at even delays zero every odd-lag reflection coefficient, so the
    # pivots come in equal pairs, and rounding may leave λ₁ below λ₀ (the
    # example above).  The largest such excess seen on 550k draws was
    # 0.70·cond·eps, so λ₀ must be the smallest pivot to within 2·cond·eps.
    m, prof, gains = channel
    lam, ok = batch_static_lambdas(prof.delay_taps, gains[None], m)
    if not ok[0]:
        return
    power = _static_power(prof.delay_taps, gains, m)
    cond = power.max() / power.min()
    eps = np.finfo(float).eps
    assert lam[0, 0] <= lam[0].min() * (1.0 + 2 * cond * eps)
    assert abs(lam[0, 0] * batch_noise_enhancement(power, -1) - 1.0) <= 16 * cond * eps


@pytest.mark.parametrize("m", [2, 8, 16])
@pytest.mark.parametrize("offset, valid", [(0.0, False), (1e-7, False), (1e-4, True)])
def test_static_stage1_verdict_from_phi(m, offset, valid):
    # Equal gains at delays 0 and M/2 null every odd bin: exactly, within
    # 1e-7 (φ = 5e13 > 1/ε, so λ₀ = 1/φ is below ε) and within 1e-4 (valid).
    # Stage I passes when every symbol's SINR reaches ε₀; deciding it from φ
    # alone agrees with deciding it from all M pivots at every SNR up to
    # MAX_SNR_DB, because λ₀ = 1/φ is the smallest pivot.
    prof = ChannelProfile(paths=((0, 0), (m // 2, 0)))
    gains = np.array([[_H, _H + offset]])
    power = _static_power(prof.delay_taps, gains, m)
    _, ok = batch_static_lambdas(prof.delay_taps, gains, m)
    nu = user_noise_enhancement("dfe", prof, gains, power[..., None, :])
    phi = batch_noise_enhancement(power, -1)
    assert ok[0] == valid
    assert np.isinf(nu).all() == (not valid)
    assert np.isinf(phi[0]) == (not valid)
    eps0 = 2.0**0.5 - 1.0
    verdicts = []
    for snr_db in [*range(0, 101, 5), 150, 200, 300, MAX_SNR_DB]:
        rho = 10.0 ** (snr_db / 10.0)
        by_pivots = (P34.sinr(rho, nu) >= eps0).all(axis=-1)
        assert np.array_equal(by_pivots, P34.sinr(rho, phi) >= eps0), snr_db
        verdicts.append(by_pivots[0])
    assert any(verdicts) == valid  # the valid draw passes stage I at a high enough SNR


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_noise_enhancement_edge_rows():
    # singular iff φ > 1/ε: φ = 1/ε exactly is regular, and the next float
    # above it and φ = 1/ε² are not; all-inf powers give φ = 0, and one inf
    # power adds 0 to the mean
    eps = equalizers.SINGULARITY_EPS
    next_up = np.nextafter(1.0 / eps, np.inf)
    above = 1.0 / np.nextafter(next_up, np.inf)  # 1/above is two floats above 1/ε
    power = np.array([[1.0, 4.0], [eps**2, eps**2], [eps, eps], [eps, above], [0.0, 1.0],
                      [5e-324, 1.0], [np.inf, np.inf], [np.inf, 0.5]])
    assert (1.0 / power[2]).mean() == 1.0 / eps and (1.0 / power[3]).mean() == next_up
    phi = batch_noise_enhancement(power, -1)
    assert _same_bits(phi, [0.625, np.inf, 1.0 / eps, np.inf, np.inf, np.inf, 0.0, 1.0])


def test_nan_power_is_singular():
    # a NaN |D|² counts as singular, like a non-finite FD-DFE pivot: φ = inf,
    # so the SINR is 0 and the channel is in outage at any SNR
    power = np.full((3, 2, 4), 0.5)
    power[1, 0, 3] = np.nan
    power[2, 1, 1] = np.nan
    power[2, 0, 0] = 0.0
    phi = batch_noise_enhancement(power, (-2, -1))
    assert np.array_equal(phi, [2.0, np.inf, np.inf])
    assert np.array_equal(batch_noise_enhancement(power, -1),
                          [[2.0, 2.0], [np.inf, 2.0], [np.inf, np.inf]])
    assert np.array_equal(P34.sinr(1e12, phi) > 0.0, [True, False, False])


def test_sub_batches_never_mix_trials():
    # a call over four times the kernel's sub-batch bound of
    # SUB_BATCH_CELLS // (N·M) trials runs in one pass, and its pivots equal,
    # bit for bit, the concatenation of smaller calls' pivots, whatever their
    # sizes; one trial is singular.  A fresh thread starts with an empty
    # workspace, which the call grows to its own lattice cells and no
    # further: Table 1's delay taps are 4 apart, so a trial has N·M/4.
    prof = table1_profile()
    n, m, trials = 16, 16, 1030
    bound = SUB_BATCH_CELLS // (n * m)
    assert trials > 4 * bound
    gains = sample_gain_matrix(prof, substream(41, 0), trials)
    gains[700] = [0.5, 0.5, 0.0, 0.0]  # equal taps 4 delays apart null 4 delay bins
    args = (prof.doppler_taps, prof.delay_taps)

    def in_a_fresh_thread():
        return (*batch_dfe_lambdas(*args, gains, n, m), equalizers._WORKSPACE.cells)

    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        lam, ok, cells = pool.submit(in_a_fresh_thread).result()
    assert cells == trials * n * m // 4
    assert not ok[700] and ok.sum() == trials - 1
    parts = [batch_dfe_lambdas(*args, gains[lo:hi], n, m)
             for lo, hi in ((0, 1), (1, 1 + bound), (1 + bound, 600), (600, trials))]
    assert np.array_equal(lam, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(ok, np.concatenate([p[1] for p in parts]))


def test_lattice_pivots_equal_the_full_grid():
    # Table 1's delay taps are 4 apart (d = 4, e = 1), so its pivots come
    # from the 16×4 lattice problem.  A zero-gain path at (delay 1, Doppler 0)
    # forces d = 1 and leaves every Gram tap's bits as they are, so the same
    # call on the padded profile solves the whole 16×16 problem: its pivots
    # and mask equal the lattice's, each lattice pivot given to its four
    # symbols, bit for bit.  Equal and 1e-7-scaled gains are singular and
    # near-equal ones valid but ill-conditioned.  Overflowing gains are left
    # out: there inf·0 = NaN in the padded Gram taps.
    prof = table1_profile()
    padded = ChannelProfile(paths=prof.paths + ((1, 0),))
    n, m = 16, 16
    step = SUB_BATCH_CELLS // (n * m)  # calls of the harness's sub-batch size
    gains = sample_gain_matrix(prof, substream(44, 0), 4096)
    cases = {"random": gains, "equal": np.broadcast_to(gains[:, :1], gains.shape).copy(),
             "tiny": gains * 1e-7, "near-equal": gains[:, :1] + 1e-4 * gains}
    for name, g in cases.items():
        for lo in range(0, len(g), step):
            part = g[lo:lo + step]
            lam, ok = batch_dfe_lambdas(prof.doppler_taps, prof.delay_taps, part, n, m)
            zero = np.zeros((len(part), 1), dtype=complex)
            full_lam, full_ok = batch_dfe_lambdas(padded.doppler_taps, padded.delay_taps,
                                                  np.concatenate([part, zero], axis=1), n, m)
            assert np.array_equal(symbol_pivots(prof, lam, n, m), full_lam), name
            assert np.array_equal(ok, full_ok), name


@pytest.mark.parametrize("n, m, paths", [(1, 8, ((0, 0), (3, 0), (5, 0))),
                                         (8, 1, ((0, 0), (0, 1), (0, 3))),
                                         (16, 16, table1_profile().paths)])
def test_pivots_outlive_the_next_call(n, m, paths):
    # the returned pivots are a copy: at N = 1 or M = 1 the reshape of the
    # delay sweep's errors alone is a view of the thread's workspace, which a
    # later call in the same thread overwrites
    prof = ChannelProfile(paths=paths)
    args = (prof.doppler_taps, prof.delay_taps)
    gains = sample_gain_matrix(prof, substream(43, 0), 96)
    gains[5] = 0.0  # a singular trial, with the placeholder λ = 1
    first = batch_dfe_lambdas(*args, gains[:64], n, m)
    kept = [a.copy() for a in first]
    assert not first[1][5] and first[1].sum() == 63
    later = batch_dfe_lambdas(*args, gains[32:], n, m)
    assert not np.array_equal(later[0][:32], kept[0][:32])
    for kept_array, array in zip(kept, first):
        assert np.array_equal(array, kept_array)
    assert not np.shares_memory(first[0], equalizers._WORKSPACE.errors)


def _doppler_lags(prof, gains, n, m):
    """The Doppler sweep's input: (N, T, M) Gram taps after the FFT over delay."""
    taps = gram_taps_from_gains(prof.doppler_taps, prof.delay_taps, gains, n, m)
    return np.moveaxis(np.fft.fft(taps, axis=-1), -2, 0)


def test_schur_errors_ignore_layout():
    # the Doppler sweep's input is a strided view of the FFT output; a
    # contiguous copy of it gives the same bits, and so does the reference
    # recursion on new arrays
    prof = table1_profile()
    gains = sample_gain_matrix(prof, substream(42, 0), 64)
    view = _doppler_lags(prof, gains, 16, 16)
    assert not view.flags.c_contiguous
    strided, contiguous = np.empty(view.shape), np.empty(view.shape)
    equalizers._schur_errors(view, strided, 1)
    equalizers._schur_errors(np.ascontiguousarray(view), contiguous, 1)
    assert np.array_equal(strided, contiguous)
    assert np.array_equal(strided, schur_errors_reference(view))


# Equal gains at delays 0 and M/2 with zero Doppler null every odd delay bin:
# exactly (Cholesky fails), within 1e-7 (a pivot below ε) and within 1e-4 (valid).
_NULL_PATHS, _H = ((0, 0), (4, 0)), 0.6 - 0.3j


# Doppler taps (0, h, h // 2) on 16×8 give every band h = 0..15; from h = 7
# the windows meet at once and every position is updated.
_BAND_GRIDS = ([(16, 8, ((0, 0), (1, h), (3, h // 2))) for h in range(16)]
               + [(1, 16, ((0, 0), (3, 0))),
                  (64, 64, ((2, 0), (6, 0), (10, 1), (14, 1))),
                  (4, 8, _NULL_PATHS),
                  (4, 8, ((0, 0), (0, 2)))])  # a Doppler null, h = 2 on N = 4


@pytest.mark.parametrize("n, m, paths", _BAND_GRIDS,
                         ids=[f"{n}x{m}-h{max(k for _, k in p) - min(k for _, k in p)}-{i}"
                              for i, (n, m, p) in enumerate(_BAND_GRIDS)])
def test_banded_sweep_equals_the_full_sweep(monkeypatch, n, m, paths):
    # The Doppler sweep updates only the windows of the band h; its powers
    # equal, bit for bit and NaN for NaN, those of the sweep over every
    # position and of the reference recursion, and the pivots and mask equal
    # those of batch_dfe_lambdas with the full sweep.  The gains are random;
    # equal across paths, which is singular on the last four grids; scaled
    # by 1e-7, which puts every pivot below SINGULARITY_EPS; and scaled by
    # 1e200, where the Gram taps overflow.
    prof = ChannelProfile(paths=tuple(dict.fromkeys(paths)))
    band = int(np.ptp(prof.doppler_taps))
    trials = 2 if n * m > 1024 else 7
    gains = sample_gain_matrix(prof, substream(43, n, m, band), trials)
    if paths == _NULL_PATHS:
        gains[0] = [_H, _H]
    cases = {"random": gains, "equal": np.broadcast_to(gains[:, :1], gains.shape).copy(),
             "tiny": gains * 1e-7, "huge": gains * 1e200}
    args = (prof.doppler_taps, prof.delay_taps)
    sweep = equalizers._schur_errors
    for name, g in cases.items():
        with np.errstate(all="ignore"):  # the huge gains' Gram taps overflow
            lags = _doppler_lags(prof, g, n, m)
            banded, full = np.empty(lags.shape), np.empty(lags.shape)
            sweep(lags, banded, band)
            sweep(lags, full)
            reference = schur_errors_reference(lags)
            lam, ok = batch_dfe_lambdas(*args, g, n, m)
            with monkeypatch.context() as patch:
                patch.setattr(equalizers, "_schur_errors", lambda r, out, band=None: sweep(r, out))
                full_lam, full_ok = batch_dfe_lambdas(*args, g, n, m)
        assert np.array_equal(banded, full, equal_nan=True), name
        assert np.array_equal(banded, reference, equal_nan=True), name
        assert np.array_equal(lam, full_lam) and np.array_equal(ok, full_ok), name
        if name in ("tiny", "huge"):
            assert not ok.any()


class TestInvariants:
    def test_trace_identity(self):
        # phi computed from the trace of D^{-1}D^{-H} equals mean |D|^{-2}
        ch = _random_channel(4, 4, seed=23)
        d = diagonalize(ch)
        dmat = np.diag(d.d_values.reshape(-1))
        inv = np.linalg.inv(dmat)
        phi_trace = np.trace(inv @ inv.conj().T).real / 16
        assert abs(phi_trace - noise_enhancement(d)) < 1e-12

    def test_lemma1_per_symbol_equality(self):
        # per-symbol empirical SINRs all agree with the common closed form
        n = m = 4
        ch = _random_channel(n, m, seed=12)
        d = diagonalize(ch)
        rho = 4.0
        rng = substream(12, 2)
        draws = 200_000
        x0 = np.sqrt(rho / 2) * (rng.standard_normal((draws, n, m))
                                 + 1j * rng.standard_normal((draws, n, m)))
        xtf = np.sqrt(rho / 2) * (rng.standard_normal((draws, n, m))
                                  + 1j * rng.standard_normal((draws, n, m)))
        z = np.sqrt(0.5) * (rng.standard_normal((draws, n, m))
                            + 1j * rng.standard_normal((draws, n, m)))
        x_dd = G0 * x0 + G1 * sfft2(xtf)
        out = isfft2(sfft2(ch.apply(x_dd) + z) / d.d_values)
        err = np.mean(np.abs(out - G0 * x0) ** 2, axis=0)
        sinr_emp = rho * P34.gamma0_sq / err
        ref = fd_le_sinr(d, rho, P34)
        assert np.abs(sinr_emp / ref - 1.0).max() < 0.03


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_pivots_positive_and_last_exact(seed):
    grid = Grid(4, 4)
    r = random_realization(ChannelProfile(paths=((0, 0), (1, 1), (2, 3))), seed)
    try:
        f = cholesky_factors(build_block_circulant(r, grid))
    except SingularChannelError:
        return
    assert np.all(f.lam > 0)
    assert abs(f.lam[-1] - r.total_power) < 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32), rho_lo=st.floats(0.1, 50),
       scale=st.floats(1.01, 10), g0_lo=st.floats(0.05, 0.9))
def test_sinr_monotone_in_rho_and_gamma0(seed, rho_lo, scale, g0_lo):
    grid = Grid(4, 4)
    r = random_realization(ChannelProfile(paths=((0, 0), (1, 1), (2, 3))), seed)
    ch = build_block_circulant(r, grid)
    d = diagonalize(ch)
    try:
        f = cholesky_factors(ch)
    except SingularChannelError:
        return
    p = PowerAllocation.split(0.75)
    assert fd_le_sinr(d, rho_lo * scale, p) >= fd_le_sinr(d, rho_lo, p)
    assert np.all(fd_dfe_sinrs(f, rho_lo * scale, p) >= fd_dfe_sinrs(f, rho_lo, p))
    g_hi = min(0.95, g0_lo * 1.05)
    lo, hi = PowerAllocation.split(g0_lo), PowerAllocation.split(g_hi)
    assert fd_le_sinr(d, rho_lo, hi) >= fd_le_sinr(d, rho_lo, lo)
    assert np.all(fd_dfe_sinrs(f, rho_lo, hi) >= fd_dfe_sinrs(f, rho_lo, lo))


@st.composite
def _small_channels(draw):
    """(n, m, paths, gains): a grid up to 8x8 with 1-4 distinct random taps on it."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    paths = tuple(draw(st.lists(cells, min_size=1, max_size=min(4, n * m), unique=True)))
    r = random_realization(ChannelProfile(paths=paths), draw(st.integers(0, 2**32)))
    return n, m, paths, r.gains


# Grids whose taps' spacing splits the Gram matrix into e·d equal copies:
# e = 2 and d = 4; e = d = 3; a Doppler-free channel (e = N); one path
# (e = N, d = M).  Paths are (delay, Doppler).
_LATTICE_GRIDS = [(8, 8, ((1, 0), (1, 2), (1, 4), (5, 6))),
                  (12, 12, ((0, 0), (3, 3), (6, 0), (9, 9))),
                  (4, 8, ((0, 0), (3, 0), (5, 0))),
                  (4, 8, ((3, 1),))]


def _lattice_examples(test):
    for i, (n, m, paths) in enumerate(_LATTICE_GRIDS):
        gains = random_realization(ChannelProfile(paths=paths), i).gains
        test = example(channel=(n, m, paths, gains))(test)
    return test


@settings(max_examples=60, deadline=None)
@example(channel=(4, 8, _NULL_PATHS, [_H, _H]))
@example(channel=(4, 8, _NULL_PATHS, [_H, _H + 1e-7]))
@example(channel=(4, 8, _NULL_PATHS, [_H, _H + 1e-4]))
@_lattice_examples
@given(channel=_small_channels())
def test_batch_pivots_match_dense_oracle(channel):
    # the (lam, ok) contract: ok is False exactly when the dense factorization
    # calls the channel singular, and otherwise the pivots agree
    n, m, paths, gains = channel
    prof = ChannelProfile(paths=paths)
    r = ChannelRealization(profile=prof, gains=gains)
    lam, ok = batch_dfe_lambdas(prof.doppler_taps, prof.delay_taps, r.gains[None], n, m)
    try:
        f = cholesky_factors(build_block_circulant(r, Grid(n, m)))
    except SingularChannelError:
        assert not ok[0]
        return
    assert ok[0]
    assert symbol_pivots(prof, lam, n, m)[0] == pytest.approx(f.lam, rel=1e-10)


@settings(max_examples=60, deadline=None)
@example(channel=(4, 8, _NULL_PATHS, [_H, _H + 1e-7]))
@example(channel=(4, 8, _NULL_PATHS, [_H, _H + 1e-4]))
@_lattice_examples
@given(channel=_small_channels())
def test_pivots_lie_in_the_bracket(channel):
    # every FD-DFE ν = 1/λ of a valid channel lies in [1/Σ|h_p|², φ], and the
    # computed ones leave it by at most the harness's BRACKET_SLACK, which
    # the harness trusts up to φ·Σ|h_p|² = BRACKET_MAX_COND; past that the
    # rounding grows with φ·Σ|h_p|² (cond(G) ~ 1e8 at the 1e-4 null)
    n, m, paths, gains = channel
    prof = ChannelProfile(paths=paths)
    gains = np.asarray(gains, dtype=complex)[None]
    lam, ok = batch_dfe_lambdas(prof.doppler_taps, prof.delay_taps, gains, n, m)
    if not ok[0]:
        return
    phi = batch_noise_enhancement(power_spectrum(prof, gains, n, m), (-2, -1))[0]
    energy = np.sum(np.abs(gains[0]) ** 2)
    slack = BRACKET_SLACK * max(1.0, phi * energy / BRACKET_MAX_COND)
    nu = 1.0 / lam[0]
    assert nu.max() <= phi * (1.0 + slack)
    assert nu.min() >= (1.0 - slack) / energy


# The corners of the grids that MAX_TRIAL_CELLS admits: one delay row, one
# Doppler column with taps at both ends of the Doppler band, and the square
# grid with taps spread over both axes.
_CORNERS = [(1, 4096, ((0, 0), (1, 0), (2048, 0), (4095, 0))),
            (4096, 1, ((0, 0), (0, 4095))),
            (64, 64, ((0, 0), (5, 3), (17, 31), (63, 63)))]


def _near_nulls(prof, gains, n, m, cond):
    """``gains`` with the last one moved so that the spectrum nearly vanishes
    at the cells where every path's phasor is the same, cell (0, 0) among
    them, and φ·Σ|h_p|² is about ``cond``."""
    gains = gains.copy()
    gains[:, -1] -= gains.sum(axis=1)  # D = Σ_p h_p = 0 at (0, 0)
    power = power_spectrum(prof, gains, n, m)
    nulls = power <= 1e-24
    rest = np.where(nulls, 0.0, 1.0 / np.where(nulls, 1.0, power)).mean(axis=(-2, -1))
    energy = np.sum(np.abs(gains) ** 2, axis=1)
    gains[:, -1] += np.sqrt(nulls.sum(axis=(-2, -1)) / (n * m * (cond / energy - rest)))
    return gains


@pytest.mark.parametrize("n, m, paths", _CORNERS, ids=["1x4096", "4096x1", "64x64"])
def test_pivots_lie_in_the_bracket_at_the_domain_corners(n, m, paths):
    # the harness's BRACKET_SLACK holds wherever it trusts the bracket, up to
    # φ·Σ|h_p|² = BRACKET_MAX_COND, on the largest grids a config can have:
    # 12 random draws and 4 near-null ones at 0.9·BRACKET_MAX_COND
    assert n * m == MAX_TRIAL_CELLS
    prof = ChannelProfile(paths=paths)
    gains = sample_gain_matrix(prof, substream(20, n), 16)
    gains[12:] = _near_nulls(prof, gains[12:], n, m, 0.9 * BRACKET_MAX_COND)
    lam, ok = batch_dfe_lambdas(prof.doppler_taps, prof.delay_taps, gains, n, m)
    phi = batch_noise_enhancement(power_spectrum(prof, gains, n, m), (-2, -1))
    energy = np.sum(np.abs(gains) ** 2, axis=1)
    cond = phi * energy
    assert np.all((0.5 * BRACKET_MAX_COND < cond[12:]) & (cond[12:] <= BRACKET_MAX_COND))
    trusted = cond <= BRACKET_MAX_COND
    assert ok[trusted].all()
    nu = 1.0 / lam[trusted]
    assert np.all(nu.max(axis=1) <= phi[trusted] * (1.0 + BRACKET_SLACK))
    assert np.all(nu.min(axis=1) >= (1.0 - BRACKET_SLACK) / energy[trusted])


@settings(max_examples=100, deadline=None)
@given(channel=_static_channels())
@example(channel=(8, ChannelProfile(paths=_NULL_PATHS), np.array([_H, _H])))  # φ = inf
@example(channel=(8, ChannelProfile(paths=_NULL_PATHS), np.array([_H, _H + 1e-7])))  # ok False
def test_user_noise_enhancement_is_static_at_n1(channel):
    # A Doppler-free user's (..., M) powers passed as (..., 1, M), the N = 1
    # grid, give its FD-LE φ and its M-point FD-DFE 1/λ bit for bit
    m, prof, gains = channel
    gains = np.stack([gains, gains[::-1]])
    power = _static_power(prof.delay_taps, gains, m)
    lam, ok = batch_static_lambdas(prof.delay_taps, gains, m)
    le = user_noise_enhancement("le", prof, gains, power[..., None, :])
    dfe = user_noise_enhancement("dfe", prof, gains, power[..., None, :])
    assert np.array_equal(le, batch_noise_enhancement(power, -1)[..., None])
    assert np.array_equal(dfe, np.where(ok[:, None], 1.0 / symbol_pivots(prof, lam, 1, m), np.inf))


@pytest.mark.parametrize("n, m, paths", [(4, 8, ((0, 0), (0, 2))), (8, 3, ((1, 0), (1, 4)))])
@pytest.mark.parametrize("offset, valid", [(0.0, False), (1e-7, False), (1e-4, True)])
def test_doppler_null_pivots_match_extended_precision(n, m, paths, offset, valid):
    # Equal gains at Doppler 0 and N/2 on one delay null every odd Doppler bin
    # of every delay bin: exactly, within 1e-7 (a pivot below ε) and within
    # 1e-4 (valid, cond(G) ~ 1e8).  The valid pivots are checked against the
    # 40-digit Schur complements 1/[G[j:,j:]⁻¹]₀₀ of G = HᴴH, since float64
    # is only good to about cond·eps there.
    prof = ChannelProfile(paths=paths)
    r = ChannelRealization(profile=prof, gains=np.array([_H, _H + offset]))
    lam, ok = batch_dfe_lambdas(prof.doppler_taps, prof.delay_taps, r.gains[None], n, m)
    ch = build_block_circulant(r, Grid(n, m))
    try:
        cholesky_factors(ch)
        dense_ok = True
    except SingularChannelError:
        dense_ok = False
    assert ok[0] == dense_ok == valid
    if not valid:
        return
    with mpmath.workdps(40):
        h = mpmath.matrix(ch.matrix.tolist())
        g = h.H * h
        exact = [float(mpmath.re(1 / mpmath.lu_solve(g[j:, j:], mpmath.matrix(
            [1] + [0] * (n * m - 1 - j)))[0])) for j in range(n * m)]
    assert symbol_pivots(prof, lam, n, m)[0] == pytest.approx(exact, rel=1e-7)


def test_package_has_no_dense_factorization():
    """Dense NM×NM algebra lives only in the tests' oracles: no module of the
    package imports or calls numpy.linalg."""
    uses = []
    for path in sorted(Path(equalizers.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            else:
                continue
            if any("linalg" in name.split(".") for name in names):
                uses.append(f"{path.name}:{node.lineno}")
    assert not uses


def test_package_has_no_dead_names():
    """Every top-level function, class and constant of the package, and every
    function in a class body but the dunders, is used by package code (a
    name, an attribute or an import, which covers the re-exports of
    ``otfsnoma/__init__.py``) or wrapped by the benchmark's tracer.  Code
    that only the tests reach belongs in ``tests/oracles.py``."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    defined, used = [], {name for _, name in tracing.TRACED}
    for path in sorted(Path(equalizers.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                members = node.body if isinstance(node, ast.ClassDef) else []
                defined += [(f"{path.name}:{node.name}", member.name) for member in members
                            if isinstance(member, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(path.name, t.id) for t in targets if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
    dead = [f"{module}:{name}" for module, name in defined
            if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert not dead
