"""Differential fuzz of the production kernel over the config space.

Each case is a random valid scenario: grids from 1×1 to 8×8, U0 profiles
of 1–4 paths on a random coupling lattice (e | N and d | M, so e·d > 1
often), 1–4 static paths, K ≤ 8, every scheduler, both directions, both
equalizers, both rate modes and ρ from −5 to 25 dB.  ``scenario_kernel``
runs one block of 8 trials, and ``oracles.rebuilt_kernel_samples`` rebuilds
every trial from the same draws with the dense and per-realization
references.  Some cases put an exactly singular U0 channel in one trial:
equal gains on two paths half the grid apart null every other bin, as
``TestSubBatches.SINGULAR`` does on 8×8, or all-zero gains where N and M
are both odd.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfsnoma import ChannelProfile, ScenarioConfig, harness
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.rng import substream
from oracles import rebuilt_kernel_samples, scenario_kernel

TRIALS = 8
CASES = 25  # per example, so that the ties' share is taken over 200 trials
MARGIN = 1e-9  # relative distance from a threshold within which two computations may disagree
TIE_SHARE = 0.01  # the most trials that may hold such a tie
RATE_RTOL = 1e-12  # the adaptive rate, a mean of logs summed in another order


def _divisors(k: int) -> list:
    return [j for j in range(1, k + 1) if k % j == 0]


@st.composite
def fuzz_cases(draw):
    """(config, ρ, index of the singular trial or None, that trial's U0 gains)."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    direction = draw(st.sampled_from(harness.DIRECTIONS))
    scheduler = draw(st.sampled_from(harness.SCHEDULERS))
    e, d = draw(st.sampled_from(_divisors(n))), draw(st.sampled_from(_divisors(m)))
    l0, k0 = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
    steps = draw(st.lists(st.tuples(st.integers(0, m // d - 1), st.integers(0, n // e - 1)),
                          min_size=1, max_size=4, unique=True))
    paths = [((l0 + d * a) % m, (k0 + e * b) % n) for a, b in steps]
    singular = draw(st.booleans())
    if singular:  # the first two paths cancel on every other delay or Doppler bin
        twin = ((l0 + m // 2) % m, k0) if m % 2 == 0 else (l0, (k0 + n // 2) % n)
        pair = [(l0, k0), twin] if m % 2 == 0 or n % 2 == 0 else [(l0, k0)]
        paths = pair + [p for p in paths if p not in pair]
    u0_profile = ChannelProfile(paths=tuple(paths[:4]))
    delays = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4, unique=True))
    cfg = ScenarioConfig(
        direction=direction, n=n, m=m,
        k_users=draw(st.integers(m if scheduler == "random" else 1, 8)),
        gamma0_sq=draw(st.floats(0.5, 1.0)),
        rate_u0=draw(st.floats(0.05, 3.0)), rate_noma=draw(st.floats(0.05, 3.0)),
        equalizer=draw(st.sampled_from(harness.EQUALIZERS)),
        snr_db=(draw(st.floats(-5.0, 25.0)),), trials=TRIALS,
        seed=draw(st.integers(0, 2**32)), scheduler=scheduler,
        rate_mode=draw(st.sampled_from(harness.RATE_MODES)) if direction == "uplink" else "fixed",
        u0_profile=u0_profile, noma_profile=ChannelProfile(paths=tuple((l, 0) for l in delays)))
    if not singular:
        return cfg, 10.0 ** (cfg.snr_db[0] / 10.0), None, None
    row = np.zeros(u0_profile.num_paths, dtype=complex)
    if len(pair) == 2:
        row[:2] = draw(st.sampled_from([0.5, 0.6 - 0.3j]))
    return cfg, 10.0 ** (cfg.snr_db[0] / 10.0), draw(st.integers(0, TRIALS - 1)), row


def _kernel_and_rebuild(cfg, rho, singular, row):
    """The kernel's samples with ``row`` as trial ``singular``'s U0 gains,
    and the rebuild's samples and ties from the same draws."""
    draw_gains = harness.sample_gain_matrix

    def with_the_singular_trial(profile, rng, count):
        gains = draw_gains(profile, rng, count)
        if profile is cfg.u0_profile and singular is not None:
            gains[singular] = row
        return gains

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "sample_gain_matrix", with_the_singular_trial)
        samples = scenario_kernel(cfg, rho, substream(cfg.seed, 0), TRIALS)
    rng = substream(cfg.seed, 0)  # the block's draw order: U0, the static users, the scheduler
    h0 = sample_gain_matrix(cfg.u0_profile, rng, TRIALS)
    if singular is not None:
        h0[singular] = row
    hk = sample_gain_matrix(cfg.noma_profile, rng, TRIALS * cfg.k_users)
    hk = hk.reshape(TRIALS, cfg.k_users, -1)
    draws = rng.random((TRIALS, cfg.k_users)) if cfg.scheduler == "random" \
        else np.empty((TRIALS, 0))
    return samples, *rebuilt_kernel_samples(cfg, rho, h0, hk, draws, MARGIN)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.lists(fuzz_cases(), min_size=CASES, max_size=CASES))
def test_kernel_matches_the_per_trial_rebuild(cases):
    # Outage flags agree exactly in every trial whose decisions all lie
    # outside MARGIN of their thresholds; the trials that do not are ties,
    # counted and limited to TIE_SHARE.  The adaptive rate agrees to
    # RATE_RTOL.  Every singular trial has U0 in outage on every symbol.
    ties = 0
    for cfg, rho, singular, row in cases:
        samples, expected, tied = _kernel_and_rebuild(cfg, rho, singular, row)
        assert samples.keys() == expected.keys(), cfg
        for name, values in expected.items():
            got, want = samples[name][~tied], values[~tied]
            if name == "ergodic_rate_gain":
                assert np.allclose(got, want, rtol=RATE_RTOL, atol=0.0), (cfg, rho, name)
            else:
                assert np.array_equal(got, want), (cfg, rho, name, got, want)
        if singular is not None:
            assert samples["u0_outage_oma" if cfg.direction == "downlink"
                           else "u0_outage" if cfg.rate_mode == "adaptive"
                           else "u0_outage_stage2"][singular] == 1.0, (cfg, rho)
        ties += int(tied.sum())
    assert ties <= math.floor(TIE_SHARE * CASES * TRIALS)
