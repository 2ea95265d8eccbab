import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsnoma import ChannelProfile, make_grid, table1_profile
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.rng import substream
from oracles import ChannelRealization, sample_realization, static_profile


class TestMakeGrid:
    def test_reference_grid(self):
        g = make_grid(16, 16, 7500.0)
        assert g.symbol_duration == pytest.approx(133.333e-6, rel=1e-4)
        assert g.frame_duration == pytest.approx(2.1333e-3, rel=1e-4)
        assert g.bandwidth == pytest.approx(120e3)

    def test_degenerate_single_cell(self):
        g = make_grid(1, 1, 1.0)
        assert g.symbol_duration == 1.0
        assert g.cells == 1

    def test_resolutions(self):
        g = make_grid(4, 3, 1000.0)
        assert g.delay_resolution == pytest.approx(1.0 / 3000.0)
        assert g.doppler_resolution == pytest.approx(250.0)

    @pytest.mark.parametrize("n,m,df", [(0, 4, 1.0), (4, 0, 1.0), (4, 4, 0.0), (4, 4, -2.0), (-1, 4, 1.0)])
    def test_invalid_arguments(self, n, m, df):
        with pytest.raises(ValueError):
            make_grid(n, m, df)


class TestProfiles:
    def test_table1_taps(self):
        prof = table1_profile()
        assert prof.paths == ((2, 0), (6, 0), (10, 1), (14, 1))
        assert prof.num_paths == 4
        assert len(set(prof.paths)) == 4

    def test_table1_fits_minimal_grid(self):
        prof = table1_profile()
        grid = make_grid(2, 15, 1000.0)
        prof.check_fits(grid)
        r = sample_realization(prof, substream(3, 0))
        assert r.gains.shape == (4,)

    def test_table1_rejected_on_small_grid(self):
        with pytest.raises(ValueError):
            table1_profile().check_fits(make_grid(16, 14, 1000.0))
        with pytest.raises(ValueError):
            table1_profile().check_fits(make_grid(1, 16, 1000.0))

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
