import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsnoma import ChannelProfile, make_grid, table1_profile
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.rng import substream
from otfsnoma.transforms import spectrum_from_taps
from oracles import (ChannelRealization, Domain, DomainMismatchError, Frame, build_block_circulant,
                     diagonalize, isfft, isfft2, nomauser_diagonalize, sfft, sfft2)

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
        grid = make_grid(2, 2, 1.0)
        x = np.zeros((2, 2), dtype=complex)
        x[0, 0] = 1.0
        out = isfft(Frame(grid, x, Domain.DELAY_DOPPLER))
        assert out.domain is Domain.TIME_FREQUENCY
        assert np.allclose(out.values, 0.5)

    def test_flat_maps_back_to_impulse(self):
        grid = make_grid(2, 2, 1.0)
        flat = Frame(grid, np.full((2, 2), 0.5, dtype=complex), Domain.TIME_FREQUENCY)
        out = sfft(flat)
        expect = np.zeros((2, 2), dtype=complex)
        expect[0, 0] = 1.0
        assert np.allclose(out.values, expect, atol=1e-14)

    @pytest.mark.parametrize("n,m", [(2, 2), (4, 3), (3, 4), (16, 16), (1, 5), (5, 1)])
    def test_round_trip(self, n, m):
        grid = make_grid(n, m, 1.0)
        frame = _random_frame(grid, seed=n * 100 + m)
        back = sfft(isfft(frame))
        assert np.abs(back.values - frame.values).max() < 1e-12
        fwd = isfft(sfft(Frame(grid, frame.values, Domain.TIME_FREQUENCY)))
        assert np.abs(fwd.values - frame.values).max() < 1e-12

    def test_isfft_brute_force(self):
        n, m = 4, 3
        grid = make_grid(n, m, 1.0)
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
        grid = make_grid(n, m, 1.0)
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
        grid = make_grid(2, 2, 1.0)
        tf = _random_frame(grid, 1, Domain.TIME_FREQUENCY)
        dd = _random_frame(grid, 2, Domain.DELAY_DOPPLER)
        with pytest.raises(DomainMismatchError):
            isfft(tf)
        with pytest.raises(DomainMismatchError):
            sfft(dd)

    def test_norm_preservation(self):
        grid = make_grid(8, 8, 1.0)
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
        grid = make_grid(4, 3, 1000.0)
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
        grid = make_grid(3, 4, 1.0)
        h = 0.3 - 0.9j
        hmat = build_block_circulant(flat_realization(h), grid).matrix
        assert np.allclose(hmat, h * np.eye(12))

    def test_apply_matches_dense_and_brute_force(self):
        grid = make_grid(4, 3, 1.0)
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
        grid = make_grid(4, 3, 1.0)
        bad = ChannelRealization(profile=ChannelProfile(paths=((3, 0),)),
                                 gains=np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            build_block_circulant(bad, grid)

    def test_batched_apply(self):
        grid = make_grid(4, 3, 1.0)
        r = random_realization(ChannelProfile(paths=((0, 1), (2, 3))), seed=9)
        ch = build_block_circulant(r, grid)
        rng = substream(10, 0)
        xs = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        ys = ch.apply(xs)
        for i in range(5):
            assert np.abs(ys[i] - ch.apply(xs[i])).max() < 1e-12


class TestDiagonalize:
    def test_flat_channel_flat_spectrum(self):
        grid = make_grid(4, 4, 1.0)
        h = 0.7 + 0.1j
        d = diagonalize(build_block_circulant(flat_realization(h), grid))
        assert np.allclose(d.d_values, h)

    def test_worked_example_formula(self):
        h0, h1 = 1 + 2j, 0.5 - 1j
        grid = make_grid(4, 3, 1000.0)
        d = diagonalize(build_block_circulant(worked_example_realization(h0, h1), grid))
        for k in range(4):
            for l in range(3):
                ref = h0 + h1 * np.exp(2j * np.pi * l / 3) * np.exp(-2j * np.pi * 3 * k / 4)
                assert abs(d.d_values[k, l] - ref) < 1e-12

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (4, 3), (4, 4)])
    def test_dense_conjugation_oracle(self, n, m):
        grid = make_grid(n, m, 1.0)
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
        grid = make_grid(4, 4, 1.0)
        h = 1.1 - 0.4j
        d = nomauser_diagonalize(flat_realization(h), grid)
        assert np.allclose(d, h)

    def test_two_tap_hand_case(self):
        grid = make_grid(4, 2, 1.0)
        ha, hb = 0.8 + 0.2j, -0.3 + 0.5j
        r = ChannelRealization(profile=ChannelProfile(paths=((0, 0), (1, 0))),
                               gains=np.array([ha, hb]))
        d = nomauser_diagonalize(r, grid)
        assert abs(d[0] - (ha + hb)) < 1e-14
        assert abs(d[1] - (ha - hb)) < 1e-14

    def test_nonzero_doppler_rejected(self):
        grid = make_grid(4, 4, 1.0)
        r = random_realization(ChannelProfile(paths=((0, 0), (1, 1))), seed=3)
        with pytest.raises(ValueError):
            nomauser_diagonalize(r, grid)

    def test_matches_full_diagonalization(self):
        grid = make_grid(5, 6, 1.0)
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
        grid = make_grid(16, 16, 7500.0)
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
        grid = make_grid(n, m, 1.0)
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
