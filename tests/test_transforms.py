import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otfsnoma import ChannelProfile, table1_profile
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.rng import substream
from otfsnoma.equalizers import batch_noise_enhancement
from otfsnoma.harness import ScenarioConfig, _block_draws, _channel_state
from otfsnoma.transforms import (coupling_lattice, power_spectrum, spectrum_from_taps,
                                 static_spectrum_from_taps)
from oracles import (ChannelRealization, Domain, DomainMismatchError, Frame, Grid,
                     build_block_circulant, diagonalize, isfft, isfft2, nomauser_diagonalize,
                     per_trial_power_spectrum, sfft, sfft2)

from conftest import flat_realization, random_realization, worked_example_realization


def _random_frame(grid, seed, domain=Domain.DELAY_DOPPLER):
    rng = substream(seed, 0)
    vals = rng.standard_normal((grid.n_doppler, grid.m_delay, 2))
    return Frame(grid, vals[..., 0] + 1j * vals[..., 1], domain)


def _unitary_dft(n):
    return np.fft.fft(np.eye(n), norm="ortho")


def _detection_matrix(n, m):
    """F_N ⊗ F_M^H, the transform that diagonalizes block-circulant channels."""
    return np.kron(_unitary_dft(n), _unitary_dft(m).conj().T)


class TestSymplecticTransforms:
    def test_impulse_maps_to_flat(self):
        grid = Grid(2, 2)
        x = np.zeros((2, 2), dtype=complex)
        x[0, 0] = 1.0
        out = isfft(Frame(grid, x, Domain.DELAY_DOPPLER))
        assert out.domain is Domain.TIME_FREQUENCY
        assert np.allclose(out.values, 0.5)

    def test_flat_maps_back_to_impulse(self):
        grid = Grid(2, 2)
        flat = Frame(grid, np.full((2, 2), 0.5, dtype=complex), Domain.TIME_FREQUENCY)
        out = sfft(flat)
        expect = np.zeros((2, 2), dtype=complex)
        expect[0, 0] = 1.0
        assert np.allclose(out.values, expect, atol=1e-14)

    @pytest.mark.parametrize("n,m", [(2, 2), (4, 3), (3, 4), (16, 16), (1, 5), (5, 1)])
    def test_round_trip(self, n, m):
        grid = Grid(n, m)
        frame = _random_frame(grid, seed=n * 100 + m)
        back = sfft(isfft(frame))
        assert np.abs(back.values - frame.values).max() < 1e-12
        fwd = isfft(sfft(Frame(grid, frame.values, Domain.TIME_FREQUENCY)))
        assert np.abs(fwd.values - frame.values).max() < 1e-12

    def test_isfft_brute_force(self):
        n, m = 4, 3
        grid = Grid(n, m)
        frame = _random_frame(grid, seed=77)
        out = isfft(frame).values
        ref = np.zeros((n, m), dtype=complex)
        for nn in range(n):
            for mm in range(m):
                acc = 0.0
                for k in range(n):
                    for l in range(m):
                        acc += frame.values[k, l] * np.exp(2j * np.pi * (k * nn / n - mm * l / m))
                ref[nn, mm] = acc / np.sqrt(n * m)
        assert np.abs(out - ref).max() < 1e-10

    def test_sfft_brute_force(self):
        n, m = 3, 4
        grid = Grid(n, m)
        frame = _random_frame(grid, seed=78, domain=Domain.TIME_FREQUENCY)
        out = sfft(frame).values
        ref = np.zeros((n, m), dtype=complex)
        for k in range(n):
            for l in range(m):
                acc = 0.0
                for nn in range(n):
                    for mm in range(m):
                        acc += frame.values[nn, mm] * np.exp(-2j * np.pi * (nn * k / n - mm * l / m))
                ref[k, l] = acc / np.sqrt(n * m)
        assert np.abs(out - ref).max() < 1e-10

    def test_domain_mismatch(self):
        grid = Grid(2, 2)
        tf = _random_frame(grid, 1, Domain.TIME_FREQUENCY)
        dd = _random_frame(grid, 2, Domain.DELAY_DOPPLER)
        with pytest.raises(DomainMismatchError):
            isfft(tf)
        with pytest.raises(DomainMismatchError):
            sfft(dd)

    def test_norm_preservation(self):
        grid = Grid(8, 8)
        frame = _random_frame(grid, seed=5)
        assert np.linalg.norm(isfft(frame).values) == pytest.approx(
            np.linalg.norm(frame.values), rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(1, 8), seed=st.integers(0, 2**32))
def test_round_trip_property(n, m, seed):
    rng = substream(seed, 1)
    x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    assert np.abs(sfft2(isfft2(x)) - x).max() < 1e-12
    assert np.linalg.norm(isfft2(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)


class TestBlockCirculant:
    def test_worked_example_blocks(self):
        # two paths on a 4×3 grid: h0 at (0,0) and h1 at delay 1, Doppler 3.
        # The Doppler-3 path lands in block A_3, which appears at block
        # positions (r, c) with (r - c) mod 4 == 3; A_1 and A_2 are zero.
        h0, h1 = 1 + 2j, 0.5 - 1j
        r = worked_example_realization(h0, h1)
        grid = Grid(4, 3)
        hmat = build_block_circulant(r, grid).matrix
        shift = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
        blocks = {(br, bc): hmat[3 * br:3 * br + 3, 3 * bc:3 * bc + 3]
                  for br in range(4) for bc in range(4)}
        for (br, bc), block in blocks.items():
            diff = (br - bc) % 4
            if diff == 0:
                assert np.allclose(block, h0 * np.eye(3))
            elif diff == 3:
                assert np.allclose(block, h1 * shift)
            else:
                assert np.allclose(block, 0.0)

    def test_single_path_is_identity(self):
        grid = Grid(3, 4)
        h = 0.3 - 0.9j
        hmat = build_block_circulant(flat_realization(h), grid).matrix
        assert np.allclose(hmat, h * np.eye(12))

    def test_apply_matches_dense_and_brute_force(self):
        grid = Grid(4, 3)
        r = random_realization(ChannelProfile(paths=((0, 0), (1, 2), (2, 1))), seed=41)
        ch = build_block_circulant(r, grid)
        x = _random_frame(grid, seed=42).values
        y = ch.apply(x)
        dense = (ch.matrix @ x.reshape(-1)).reshape(4, 3)
        assert np.abs(y - dense).max() < 1e-10
        ref = np.zeros_like(x)
        for k in range(4):
            for l in range(3):
                for (d, kp), h in zip(r.profile.paths, r.gains):
                    ref[k, l] += h * x[(k - kp) % 4, (l - d) % 3]
        assert np.abs(y - ref).max() < 1e-10

    def test_tap_out_of_range(self):
        grid = Grid(4, 3)
        bad = ChannelRealization(profile=ChannelProfile(paths=((3, 0),)),
                                 gains=np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            build_block_circulant(bad, grid)

    def test_batched_apply(self):
        grid = Grid(4, 3)
        r = random_realization(ChannelProfile(paths=((0, 1), (2, 3))), seed=9)
        ch = build_block_circulant(r, grid)
        rng = substream(10, 0)
        xs = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        ys = ch.apply(xs)
        for i in range(5):
            assert np.abs(ys[i] - ch.apply(xs[i])).max() < 1e-12


class TestDiagonalize:
    def test_flat_channel_flat_spectrum(self):
        grid = Grid(4, 4)
        h = 0.7 + 0.1j
        d = diagonalize(build_block_circulant(flat_realization(h), grid))
        assert np.allclose(d.d_values, h)

    def test_worked_example_formula(self):
        h0, h1 = 1 + 2j, 0.5 - 1j
        grid = Grid(4, 3)
        d = diagonalize(build_block_circulant(worked_example_realization(h0, h1), grid))
        for k in range(4):
            for l in range(3):
                ref = h0 + h1 * np.exp(2j * np.pi * l / 3) * np.exp(-2j * np.pi * 3 * k / 4)
                assert abs(d.d_values[k, l] - ref) < 1e-12

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (4, 3), (4, 4)])
    def test_dense_conjugation_oracle(self, n, m):
        grid = Grid(n, m)
        paths = tuple((l % m, k % n) for l, k in [(0, 0), (1, 1), (2, 3)])
        r = random_realization(ChannelProfile(paths=tuple(dict.fromkeys(paths))), seed=n * 7 + m)
        ch = build_block_circulant(r, grid)
        t = _detection_matrix(n, m)
        conj = t @ ch.matrix @ t.conj().T
        off = conj - np.diag(np.diag(conj))
        assert np.abs(off).max() < 1e-10
        d = diagonalize(ch)
        assert np.abs(np.diag(conj) - d.d_values.reshape(-1)).max() < 1e-10

    def test_detection_matrix_matches_sfft2(self):
        # applying F_N ⊗ F_M^H to the stacked frame is exactly sfft2
        n, m = 4, 3
        rng = substream(31, 0)
        x = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        vec = _detection_matrix(n, m) @ x.reshape(-1)
        assert np.abs(vec.reshape(n, m) - sfft2(x)).max() < 1e-12


class TestStaticDiagonal:
    def test_flat(self):
        grid = Grid(4, 4)
        h = 1.1 - 0.4j
        d = nomauser_diagonalize(flat_realization(h), grid)
        assert np.allclose(d, h)

    def test_two_tap_hand_case(self):
        grid = Grid(4, 2)
        ha, hb = 0.8 + 0.2j, -0.3 + 0.5j
        r = ChannelRealization(profile=ChannelProfile(paths=((0, 0), (1, 0))),
                               gains=np.array([ha, hb]))
        d = nomauser_diagonalize(r, grid)
        assert abs(d[0] - (ha + hb)) < 1e-14
        assert abs(d[1] - (ha - hb)) < 1e-14

    def test_nonzero_doppler_rejected(self):
        grid = Grid(4, 4)
        r = random_realization(ChannelProfile(paths=((0, 0), (1, 1))), seed=3)
        with pytest.raises(ValueError):
            nomauser_diagonalize(r, grid)

    def test_matches_full_diagonalization(self):
        grid = Grid(5, 6)
        r = random_realization(ChannelProfile(paths=((0, 0), (2, 0), (5, 0))), seed=21)
        d_static = nomauser_diagonalize(r, grid)
        d_full = diagonalize(build_block_circulant(r, grid)).d_values
        for k in range(5):
            assert np.abs(d_full[k] - d_static).max() < 1e-12


class TestSpectrumStatistics:
    def test_noise_whiteness(self):
        # the detection transform is unitary: transformed white noise stays white
        n, m = 4, 4
        rng = substream(55, 0)
        z = (rng.standard_normal((100_000, n, m)) + 1j * rng.standard_normal((100_000, n, m))) / np.sqrt(2)
        tz = sfft2(z).reshape(100_000, -1)
        cov = tz.conj().T @ tz / tz.shape[0]
        assert np.abs(cov - np.eye(n * m)).max() < 0.02

    def test_spectrum_marginals_unit_power(self):
        prof = table1_profile()
        grid = Grid(16, 16)
        gains = sample_gain_matrix(prof, substream(56, 0), 100_000)
        taps = np.zeros((100_000, 16, 16), dtype=complex)
        taps[:, prof.doppler_taps, prof.delay_taps] = gains
        d = spectrum_from_taps(taps)
        power = np.mean(np.abs(d) ** 2, axis=0)
        assert np.abs(power - 1.0).max() < 0.02

    def test_spectrum_covariance_is_block_circulant(self):
        # covariance of the stacked eigenvalues depends only on index
        # differences ((k-k') mod N, (l-l') mod M): compare shifted entries
        prof = table1_profile()
        n = m = 4
        small = ChannelProfile(paths=((2 % m, 0), (1, 0), (3, 1), (0, 1)))
        grid = Grid(n, m)
        gains = sample_gain_matrix(small, substream(57, 0), 100_000)
        taps = np.zeros((100_000, n, m), dtype=complex)
        taps[:, small.doppler_taps, small.delay_taps] = gains
        d = spectrum_from_taps(taps).reshape(100_000, -1)
        cov = d.conj().T @ d / d.shape[0]
        idx = [(k, l) for k in range(n) for l in range(m)]
        for (k1, l1) in [(0, 0), (1, 2)]:
            for (k2, l2) in [(0, 1), (2, 3)]:
                a = cov[idx.index((k1, l1)), idx.index((k2, l2))]
                b = cov[idx.index(((k1 + 1) % n, (l1 + 2) % m)),
                        idx.index(((k2 + 1) % n, (l2 + 2) % m))]
                assert abs(a - b) < 0.03


@st.composite
def _grid_and_profile(draw):
    n, m = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    paths = draw(st.lists(cells, min_size=1, max_size=min(4, n * m), unique=True))
    return n, m, ChannelProfile(paths=tuple(paths))


@settings(max_examples=200, deadline=None)
@given(grid=_grid_and_profile(), seed=st.integers(0, 2**32),
       log_scale=st.floats(min_value=-6, max_value=6))
def test_power_spectrum_matches_the_fft_oracles(grid, seed, log_scale):
    # |h·E|² against |FFT of the zero-filled taps|²; both are sums of the P
    # path terms rounded in different orders, so they differ by a few ulps
    # of (Σ|h_p|)², the largest |D|² can be.  The observed worst over 3000
    # random cases up to 16×16 was 8.7 eps·(Σ|h_p|)².
    n, m, prof = grid
    rng = substream(seed, 0)
    gains = sample_gain_matrix(prof, rng, 6).reshape(2, 3, prof.num_paths)
    gains *= 10.0 ** (log_scale * rng.random((2, 3, prof.num_paths)))
    power = power_spectrum(prof, gains, n, m)
    assert power.shape == (2, 3, n, m)
    taps = np.zeros((2, 3, n, m), dtype=complex)
    taps[..., prof.doppler_taps, prof.delay_taps] = gains
    tol = 64 * np.finfo(float).eps * np.abs(gains).sum(axis=-1)[..., None, None] ** 2
    assert (np.abs(power - np.abs(spectrum_from_taps(taps)) ** 2) <= tol).all()
    if n == 1:  # a Doppler-free user's M-point spectrum is the N = 1 case
        static = np.abs(static_spectrum_from_taps(taps[..., 0, :])) ** 2
        assert (np.abs(power[..., 0, :] - static) <= tol[..., 0]).all()
    # a trial's (leading-axis entry's) bits do not depend on the trials
    # that share the call
    assert np.array_equal(power_spectrum(prof, gains[1:], n, m), power[1:])


@st.composite
def _lattice_grid_and_profile(draw):
    # paths at Doppler k₀ + e·a and delay l₀ + d·b, e, d ≥ 2, on the
    # (e·rows)×(d·cols) grid, in any order, so path 0 need not have the
    # smallest taps; the grid's lattice is this one or a coarser one
    e, d = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k0, l0 = draw(st.integers(0, e - 1)), draw(st.integers(0, d - 1))
    cells = st.tuples(st.integers(0, cols - 1), st.integers(0, rows - 1))
    offsets = draw(st.lists(cells, min_size=1, max_size=min(4, rows * cols), unique=True))
    return e * rows, d * cols, ChannelProfile(paths=tuple((l0 + d * b, k0 + e * a)
                                                          for b, a in offsets))


@settings(max_examples=200, deadline=None)
@given(grid=_lattice_grid_and_profile(), seed=st.integers(0, 2**32),
       log_scale=st.floats(min_value=-6, max_value=6))
def test_lattice_spectrum_is_one_copy_of_the_grid(grid, seed, log_scale):
    # |D|² has periods N/e and M/d, so the reduced profile's spectrum on
    # the (N/e)×(M/d) grid, read at (k mod N/e, l mod M/d), is the whole
    # grid's, to the FFT comparison's tolerance above; φ, the mean of
    # |D|⁻² over e·d equal copies or over one, agrees to 1e-12 relative
    # (1.3e-13 was the worst seen over 120k such channels); and the
    # harness holds U0's spectrum as that one copy
    n, m, prof = grid
    lattice, e, d = coupling_lattice(prof, n, m)
    assert e > 1 and d > 1 and n % e == 0 and m % d == 0
    rows, cols = n // e, m // d
    rng = substream(seed, 0)
    gains = sample_gain_matrix(prof, rng, 6).reshape(2, 3, prof.num_paths)
    gains *= 10.0 ** (log_scale * rng.random((2, 3, prof.num_paths)))
    reduced = power_spectrum(lattice, gains, rows, cols)
    assert reduced.shape == (2, 3, rows, cols)
    tiled = reduced[..., np.arange(n)[:, None] % rows, np.arange(m) % cols]
    taps = np.zeros((2, 3, n, m), dtype=complex)
    taps[..., prof.doppler_taps, prof.delay_taps] = gains
    tol = 64 * np.finfo(float).eps * np.abs(gains).sum(axis=-1)[..., None, None] ** 2
    full = power_spectrum(prof, gains, n, m)
    assert (np.abs(tiled - full) <= tol).all()
    assert (np.abs(tiled - np.abs(spectrum_from_taps(taps)) ** 2) <= tol).all()
    phi, phi_full = (batch_noise_enhancement(p, (-2, -1)) for p in (reduced, full))
    assert np.array_equal(np.isinf(phi), np.isinf(phi_full))
    finite = np.isfinite(phi)
    assert (np.abs(phi[finite] / phi_full[finite] - 1.0) <= 1e-12).all()
    cfg = ScenarioConfig(direction="downlink", n=n, m=m, k_users=m, gamma0_sq=0.75,
                         rate_u0=0.5, rate_noma=1.0, equalizer="le", snr_db=(0.0,), trials=3,
                         seed=1, u0_profile=prof, noma_profile=ChannelProfile(paths=((0, 0),)))
    a0, _ = _channel_state(cfg, *_block_draws(cfg, substream(seed, 1), 3)[:2])
    assert a0.shape == (3, rows, cols)


def test_table1_spectrum_is_one_16x4_copy():
    # Table 1's delay taps 2, 6, 10, 14 on M = 16 share d = 4, and its
    # Doppler taps 0, 0, 1, 1 give e = 1: U0's spectrum is (T, 16, 4)
    lattice, e, d = coupling_lattice(table1_profile(), 16, 16)
    assert (e, d) == (1, 4)
    assert lattice == ChannelProfile(paths=((0, 0), (1, 0), (2, 1), (3, 1)))
    cfg = ScenarioConfig(direction="downlink", n=16, m=16, k_users=16, gamma0_sq=0.75,
                         rate_u0=0.5, rate_noma=1.0, equalizer="le", snr_db=(0.0,), trials=5,
                         seed=1)
    a0, _ = _channel_state(cfg, *_block_draws(cfg, substream(1, 0), 5)[:2])
    assert a0.shape == (5, 16, 4)


@st.composite
def _spectrum_batch(draw):
    # (n, m, profile, trials, k): (trials, k, P) gains, or (trials, P) when
    # k is None, so a trial has k·N or N rows; at most 2¹⁸ trial-cells
    n, m = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    cells = draw(st.lists(st.integers(0, n * m - 1), min_size=1, max_size=min(8, n * m),
                          unique=True))
    prof = ChannelProfile(paths=tuple((c % m, c // m) for c in cells))
    k = draw(st.sampled_from([None, 1, 4, 16]))
    trials = draw(st.sampled_from([t for t in (1, 3, 17, 256) if t * (k or 1) * n * m <= 2**18]))
    return n, m, prof, trials, k


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(batch=_spectrum_batch(), seed=st.integers(0, 2**32),
       log_scale=st.floats(min_value=-6, max_value=6))
# one row per trial (k·N = 1), where numpy calls gemv instead of gemm
@example(batch=(1, 8, ChannelProfile(paths=((0, 0), (3, 0))), 17, 1), seed=1, log_scale=0.0)
@example(batch=(1, 16, ChannelProfile(paths=((0, 0), (1, 0), (5, 0))), 256, 1), seed=2,
         log_scale=0.0)
@example(batch=(1, 9, ChannelProfile(paths=tuple((d, 0) for d in (0, 2, 3, 4, 8))), 3, None),
         seed=3, log_scale=0.0)
# 32 trials a call on 16×16, with a remainder; two trials a call on 64×64
@example(batch=(16, 16, table1_profile(), 256, None), seed=4, log_scale=0.0)
@example(batch=(64, 64, table1_profile(), 17, 1), seed=5, log_scale=0.0)
def test_power_spectrum_keeps_the_per_trial_bits(batch, seed, log_scale):
    # the trials grouped into BLAS calls of at most SPECTRUM_CALL_MACS
    # multiply-adds give the bits of one product per trial, and a 1-trial
    # call gives the bits of the same trial in a T-trial call, which leaves
    # the first result as it was; a given output array gets the same bits
    n, m, prof, trials, k = batch
    shape = (trials, prof.num_paths) if k is None else (trials, k, prof.num_paths)
    rng = substream(seed, 0)
    gains = sample_gain_matrix(prof, rng, math.prod(shape[:-1])).reshape(shape)
    gains *= 10.0 ** (log_scale * rng.random(shape))
    power = power_spectrum(prof, gains, n, m)
    assert _same_bits(power, per_trial_power_spectrum(prof, gains, n, m))
    out = np.full(power.shape, np.nan)
    assert power_spectrum(prof, gains, n, m, out=out) is out
    assert _same_bits(out, power)
    for i in {0, trials // 2, trials - 1}:
        assert _same_bits(power_spectrum(prof, gains[i:i + 1], n, m), power[i:i + 1])


_ONE_THREAD_CODE = """
import time
from otfsnoma import table1_profile
from otfsnoma.harness import default_noma_profile
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.rng import substream
from otfsnoma.transforms import power_spectrum
for prof, trials, k, n, m in ((default_noma_profile(), 4096, 16, 1, 16),
                              (table1_profile(), 4096, 1, 16, 16),
                              (table1_profile(), 64, 1, 64, 64)):
    gains = sample_gain_matrix(prof, substream(1, 0), trials * k).reshape(trials, k, -1)
    power_spectrum(prof, gains, n, m)
    for _ in range(40):  # until OpenBLAS's idle workers stop spinning
        cpu = time.process_time()
        time.sleep(0.05)
        if time.process_time() - cpu < 0.005:
            break
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(20):
        power_spectrum(prof, gains, n, m)
    print(trials, k, n, m, time.process_time() - cpu, time.perf_counter() - wall)
"""


def test_power_spectrum_stays_on_one_thread():
    # OpenBLAS runs a zgemm of 2¹⁶ multiply-adds or more on several threads,
    # which a pool of workers pays for many times over.  In a fresh process
    # (a thread pool, once started, would stay), the grouped products of a
    # 4096-trial block on 16×16 (K = 16 static users, and U0) and of a
    # 64-trial block on 64×64 spend no more process time than wall time;
    # multithreaded products showed 1.4 to 2.0 times the wall time.  An
    # OpenBLAS worker spins for tens of milliseconds after it starts, or after
    # a threaded call, before it sleeps, so each case times its products only
    # once the process has gone idle: a start-up spin that overlapped the
    # first case billed it 1.2 to 1.6 times its wall time.
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _ONE_THREAD_CODE], env=env, check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        *case, cpu, wall = line.split()
        assert float(cpu) <= 1.3 * float(wall), case
