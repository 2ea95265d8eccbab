import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsnoma import ChannelProfile, table1_profile
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.rng import substream
from oracles import (ChannelRealization, complex_multiply_gains, sample_realization,
                     static_profile)


class TestProfiles:
    def test_table1_taps(self):
        prof = table1_profile()
        assert prof.paths == ((2, 0), (6, 0), (10, 1), (14, 1))
        assert prof.num_paths == 4
        assert len(set(prof.paths)) == 4

    def test_table1_fits_minimal_grid(self):
        prof = table1_profile()
        prof.check_fits(2, 15)
        r = sample_realization(prof, substream(3, 0))
        assert r.gains.shape == (4,)

    def test_table1_rejected_on_small_grid(self):
        with pytest.raises(ValueError):
            table1_profile().check_fits(16, 14)
        with pytest.raises(ValueError):
            table1_profile().check_fits(1, 16)

    def test_static_profile(self):
        prof = static_profile(4, [0, 1, 2, 3])
        assert prof.num_paths == 4
        assert np.all(prof.doppler_taps == 0)
        assert prof.is_static()

    def test_static_single_tap(self):
        prof = static_profile(1, [0])
        assert prof.paths == ((0, 0),)

    def test_static_duplicate_rejected(self):
        with pytest.raises(ValueError):
            static_profile(2, [0, 0])

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            ChannelProfile(paths=())

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            ChannelProfile(paths=((1, 0), (1, 0)))

    @pytest.mark.parametrize("paths", [((2.5, 0.9), (6, 0)), ((2, 0), (6.0, 0)),
                                       ((2, "1"), (6, 0))])
    def test_non_integer_taps_rejected(self, paths):
        # a fractional tap is an error, not silently truncated to an integer one
        with pytest.raises(ValueError, match="integers"):
            ChannelProfile(paths=paths)

    def test_numpy_integer_taps_pass(self):
        prof = ChannelProfile(paths=tuple(zip(np.array([2, 6]), np.array([0, 1], np.uint8))))
        assert prof.paths == ((2, 0), (6, 1))
        assert all(type(tap) is int for path in prof.paths for tap in path)


class TestSampling:
    def test_unit_power_normalization(self):
        prof = table1_profile()
        gains = sample_gain_matrix(prof, substream(11, 0), 100_000)
        mean_power = np.mean(np.sum(np.abs(gains) ** 2, axis=1))
        assert 0.99 <= mean_power <= 1.01

    def test_single_path_variance(self):
        prof = ChannelProfile(paths=((0, 0),))
        gains = sample_gain_matrix(prof, substream(12, 0), 100_000)
        var = np.mean(np.abs(gains) ** 2)
        assert 0.98 <= var <= 1.02

    def test_component_variances(self):
        prof = table1_profile()
        gains = sample_gain_matrix(prof, substream(13, 0), 100_000)
        target = 1.0 / (2.0 * prof.num_paths)
        assert np.var(gains.real) == pytest.approx(target, rel=0.02)
        assert np.var(gains.imag) == pytest.approx(target, rel=0.02)

    def test_determinism(self):
        prof = table1_profile()
        a = sample_realization(prof, substream(99, 5))
        b = sample_realization(prof, substream(99, 5))
        assert np.array_equal(a.gains, b.gains)
        c = sample_realization(prof, substream(99, 6))
        assert not np.array_equal(a.gains, c.gains)

    def test_gain_length_matches_paths(self):
        prof = static_profile(3, [0, 2, 5])
        r = sample_realization(prof, substream(1, 0))
        assert r.gains.shape == (prof.num_paths,)

    def test_wrong_gain_length_rejected(self):
        with pytest.raises(ValueError):
            ChannelRealization(profile=table1_profile(), gains=np.ones(3, dtype=complex))

    @pytest.mark.parametrize("prof", [
        table1_profile(), ChannelProfile(paths=((0, 0),)), static_profile(3, [0, 2, 5]),
        ChannelProfile(paths=tuple((d, d % 2) for d in range(8))),
    ], ids=["table1", "one-path", "static-3", "eight-paths"])
    @pytest.mark.parametrize("count", [0, 1, 50_000])
    def test_in_place_draw_keeps_the_complex_multiply_bits(self, prof, count):
        # the same substream through both forms; comparing the raw words
        # tells a signed zero from its opposite
        gains = sample_gain_matrix(prof, substream(17, count), count)
        ref = complex_multiply_gains(prof, substream(17, count), count)
        assert gains.shape == ref.shape == (count, prof.num_paths)
        assert gains.dtype == np.complex128
        assert np.array_equal(gains.view(np.uint64), ref.view(np.uint64))

    def test_drawn_gains_are_contiguous_and_writeable(self):
        # _block_draws reshapes the users' gains without a copy, and a
        # test writes a singular draw into them
        gains = sample_gain_matrix(table1_profile(), substream(18, 0), 5)
        assert gains.flags.c_contiguous and gains.flags.writeable
        assert np.shares_memory(gains.reshape(5, 1, 4), gains)

    def test_gains_are_readonly(self):
        r = sample_realization(table1_profile(), substream(2, 0))
        with pytest.raises(ValueError):
            r.gains[0] = 0.0


@settings(max_examples=25, deadline=None)
@given(num=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**32))
def test_sampled_gains_always_match_path_count(num, seed):
    prof = static_profile(num, list(range(num)))
    r = sample_realization(prof, substream(seed, 0))
    assert r.gains.shape == (num,)
    assert np.all(np.isfinite(r.gains))
