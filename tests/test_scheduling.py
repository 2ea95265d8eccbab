import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsnoma.rng import substream
from otfsnoma.scheduling import batch_schedule
from oracles import UserPool, greedy_schedule, per_subchannel_schedule, random_schedule


def _pool(arr):
    return UserPool(diag_magnitudes=np.asarray(arr, dtype=float))


class TestUserPool:
    def test_validation(self):
        with pytest.raises(ValueError):
            UserPool(diag_magnitudes=np.zeros((0, 4)))
        with pytest.raises(ValueError):
            UserPool(diag_magnitudes=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            UserPool(diag_magnitudes=np.array([[1.0, -0.5]]))

    def test_from_diagonals(self):
        d = np.array([[1 + 1j, 3 - 4j]])
        pool = UserPool.from_diagonals(d)
        assert np.allclose(pool.diag_magnitudes, [[np.sqrt(2), 5.0]])


class TestRandomSchedule:
    def test_k_equals_m_selects_everyone(self):
        pool = _pool(np.ones((4, 4)))
        sel = random_schedule(pool, substream(1, 0))
        assert sorted(sel) == [0, 1, 2, 3]

    def test_full_pool_16(self):
        pool = _pool(np.ones((16, 16)))
        sel = random_schedule(pool, substream(2, 0))
        assert sorted(sel) == list(range(16))

    def test_too_few_users(self):
        pool = _pool(np.ones((3, 4)))
        with pytest.raises(ValueError):
            random_schedule(pool, substream(3, 0))

    def test_uniform_selection_frequency(self):
        pool = _pool(np.ones((4, 2)))
        rng = substream(4, 0)
        counts = np.zeros(4)
        draws = 100_000
        for _ in range(draws):
            counts[random_schedule(pool, rng)] += 1
        freq = counts / draws
        assert np.abs(freq - 0.5).max() < 0.01


class TestGreedySchedule:
    def test_direct_argmax(self):
        pool = _pool([[0.3, 0.3], [0.7, 0.7]])
        assert greedy_schedule(pool) == 1

    def test_tie_break_lowest_index(self):
        pool = _pool(np.ones((3, 4)))
        assert greedy_schedule(pool) == 0

    def test_min_gain_statistic_dominates_single_user(self):
        # the selected user's worst-subchannel gain is stochastically larger
        # than any single user's
        rng = substream(5, 0)
        draws = 100_000
        k, m = 4, 4
        d = (rng.standard_normal((draws, k, m)) + 1j * rng.standard_normal((draws, k, m))) / np.sqrt(2)
        gains = np.abs(d) ** 2
        sel_min = gains.min(axis=2).max(axis=1)
        user0_min = gains[:, 0, :].min(axis=1)
        for x in (0.05, 0.1, 0.3, 0.7):
            assert np.mean(sel_min <= x) <= np.mean(user0_min <= x) + 0.01


class TestPerSubchannelSchedule:
    def test_single_user(self):
        pool = _pool(np.ones((1, 6)))
        assert np.all(per_subchannel_schedule(pool) == 0)

    def test_crafted_dominance(self):
        mags = np.ones((3, 4))
        mags[2, 1] = 5.0
        mags[0, 3] = 7.0
        sel = per_subchannel_schedule(_pool(mags))
        assert sel[1] == 2
        assert sel[3] == 0
        assert sel[0] == 0  # tie break

    def test_selected_gain_follows_max_order_statistic(self):
        rng = substream(6, 0)
        draws = 100_000
        k = 6
        d = (rng.standard_normal((draws, k, 1)) + 1j * rng.standard_normal((draws, k, 1))) / np.sqrt(2)
        pool_gains = np.abs(d) ** 2
        sel = pool_gains.argmax(axis=1)[:, 0]
        chosen = pool_gains[np.arange(draws), sel, 0]
        xs = np.sort(chosen)
        ecdf = np.arange(1, draws + 1) / draws
        model = (1 - np.exp(-xs)) ** k
        assert np.abs(ecdf - model).max() < 0.01


class TestBatchSchedule:
    def test_matches_pool_functions(self):
        rng = substream(7, 0)
        gains = rng.random((10, 5, 3)) + 0.01
        per = batch_schedule(gains, "per_subchannel", rng, 3)
        greedy = batch_schedule(gains, "greedy", rng, 3)
        for t in range(10):
            pool = UserPool(diag_magnitudes=np.sqrt(gains[t]))
            assert np.all(per[t] == per_subchannel_schedule(pool))
            assert np.all(greedy[t] == greedy_schedule(pool))

    def test_random_without_replacement(self):
        rng = substream(8, 0)
        gains = rng.random((50, 6, 4))
        sel = batch_schedule(gains, "random", rng, 4)
        for row in sel:
            assert len(set(row.tolist())) == 4

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError):
            batch_schedule(np.ones((1, 2, 2)), "best", substream(9, 0), 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), scale=st.floats(min_value=1e-3, max_value=1e3))
def test_scale_invariance(seed, scale):
    rng = substream(seed, 3)
    mags = rng.random((5, 4)) + 1e-6
    a, b = _pool(mags), _pool(mags * scale)
    assert greedy_schedule(a) == greedy_schedule(b)
    assert np.all(per_subchannel_schedule(a) == per_subchannel_schedule(b))
    sel_a = random_schedule(a, substream(seed, 4))
    sel_b = random_schedule(b, substream(seed, 4))
    assert np.all(sel_a == sel_b)
