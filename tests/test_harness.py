import dataclasses
import glob
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from otfsnoma import (ChannelProfile, ConfigError, CurvePoint, EstimatorUndefinedError,
                      PowerAllocation, ScenarioConfig, corollary1_outage, diversity_slope, emit_csv,
                      read_csv_points, run_scenario)
from otfsnoma import cli, harness
from otfsnoma.harness import (_block_draws, _channel_state, parse_config_file, parse_config_text,
                              scenario_kernel)
from otfsnoma.rng import substream
from oracles import (ChannelRealization, LinkConfig, UserPool, build_block_circulant,
                     build_tx_frame, diagonalize, noma_outage, noma_stage1, noma_stage2,
                     nomauser_diagonalize, per_subchannel_schedule, u0_receive, uplink_stage1_sinr,
                     uplink_stage2_sinrs)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SHIPPED_CONFIGS = [open(p, encoding="utf-8").read() for p in
                   sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.cfg")))]
EDGE_VALUES = ("", "nan", "inf", "-inf", "0", "-1", "1e400", "1e-320", "99999999999999999999",
               "99999999999999999999:0", "0:99999999999999999999", "1:2:3", "0:0,0:0", ",", "0,inf",
               "0,nan", "5,0", "dfe", "uplink", "greedy", "adaptive", "1" * 5000)


def small_config(**overrides):
    base = dict(direction="downlink", n=8, m=8, k_users=8, gamma0_sq=0.75,
                rate_u0=0.5, rate_noma=1.0, equalizer="le",
                snr_db=(0.0, 10.0), trials=512, seed=1234,
                u0_profile=ChannelProfile(paths=((2, 0), (6, 0), (5, 1), (7, 1))))
    base.update(overrides)
    return ScenarioConfig(**base)


CONFIG_TEXT = """
# downlink outage scenario
direction = downlink
n = 8
m = 8
delta_f = 7500
k_users = 8
u0_profile = 2:0,6:0,5:1,7:1
noma_profile = 0:0,1:0,2:0,3:0
gamma0_sq = 0.75
rate_u0 = 0.5
rate_noma = 1.0
equalizer = le
scheduler = random
snr_db = 0,10
trials = 512
seed = 1234
"""


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config_text(CONFIG_TEXT)
        assert cfg == small_config(scheduler="random", delta_f=7500.0)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="snr_grid"):
            parse_config_text(CONFIG_TEXT + "\nsnr_grid = 1,2\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config_text(CONFIG_TEXT + "\ntrials = 9\n")

    def test_missing_required_key(self):
        broken = CONFIG_TEXT.replace("seed = 1234", "")
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text(broken)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config_text(CONFIG_TEXT + "\nwhat is this\n")

    def test_file_round_trip(self, tmp_path):
        from otfsnoma import parse_config_file

        path = tmp_path / "scenario.cfg"
        path.write_text(CONFIG_TEXT)
        assert parse_config_file(path) == parse_config_text(CONFIG_TEXT)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(SHIPPED_CONFIGS), st.data())
    def test_parse_fuzz_raises_only_config_errors(self, text, data):
        """Replace one value of a shipped config: the text parses, or the
        ConfigError names a config key or a line."""
        lines = text.splitlines()
        i = data.draw(st.sampled_from([i for i, s in enumerate(lines) if "=" in s.split("#")[0]]))
        value = data.draw(st.one_of(
            st.sampled_from(EDGE_VALUES), st.integers().map(str), st.floats().map(repr),
            st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")))))
        lines[i] = lines[i].partition("=")[0] + "= " + value
        try:
            parse_config_text("\n".join(lines))
        except ConfigError as exc:
            keys = {f.name for f in dataclasses.fields(ScenarioConfig)}
            assert exc.field in keys or re.fullmatch(r"line \d+", exc.field)

    @pytest.mark.parametrize("overrides", [
        dict(direction="sideways"),
        dict(trials=0),
        dict(snr_db=()),
        dict(snr_db=(10.0, 5.0)),
        dict(snr_db=(5.0, 5.0)),
        dict(gamma0_sq=0.0),
        dict(gamma0_sq=1.5),
        dict(equalizer="mmse"),
        dict(scheduler="fair"),
        dict(rate_mode="turbo"),
        dict(k_users=4),  # random scheduling needs K >= M
        dict(rate_u0=0.0),
        dict(u0_profile=ChannelProfile(paths=((9, 0),))),
        dict(noma_profile=ChannelProfile(paths=((0, 1),))),
        dict(equalizer="dfe", n=128, m=64, k_users=64),  # beyond MAX_DFE_CELLS
    ])
    def test_validation_errors(self, overrides):
        with pytest.raises(ConfigError):
            small_config(**overrides)

    @pytest.mark.parametrize("overrides,field", [
        (dict(n=0), "n"),
        (dict(m=0), "m"),
        (dict(rate_u0=0.0), "rate_u0"),
        (dict(rate_noma=-1.0), "rate_noma"),
        (dict(u0_profile=ChannelProfile(paths=((9, 0),))), "u0_profile"),
        (dict(noma_profile=ChannelProfile(paths=((9, 0),))), "noma_profile"),
        (dict(equalizer="dfe", n=128, m=64, k_users=64), "equalizer"),
        (dict(rate_u0=math.nan), "rate_u0"),
        (dict(rate_noma=math.inf), "rate_noma"),
        (dict(rate_noma=1024.0), "rate_noma"),
        (dict(snr_db=(math.nan,)), "snr_db"),
        (dict(snr_db=(0.0, math.inf)), "snr_db"),
        (dict(snr_db=(0.0, 4000.0)), "snr_db"),
        (dict(delta_f=math.nan), "delta_f"),
        (dict(delta_f=math.inf), "delta_f"),
        (dict(u0_profile=ChannelProfile(paths=((10**20, 0),))), "u0_profile"),
        (dict(noma_profile=ChannelProfile(paths=((0, 10**20),))), "noma_profile"),
        (dict(seed=-1), "seed"),
        (dict(seed=2**64), "seed"),
    ])
    def test_validation_error_names_one_key(self, overrides, field):
        with pytest.raises(ConfigError) as exc:
            small_config(**overrides)
        assert exc.value.field == field


class TestCorollary1:
    def test_single_path_exponential(self):
        rho, r0 = 10.0, 0.5
        eps0 = 2**r0 - 1
        delta = 0.75 - 0.25 * eps0
        expect = 1 - math.exp(-eps0 / (rho * delta))
        assert corollary1_outage(0, rho, 0.75, 0.25, r0) == pytest.approx(expect, rel=1e-12)

    def test_reference_point_against_gamma_cdf(self):
        # P0=3, rho=10, gamma0^2=3/4, R0=0.5: x = eps0*4/(rho*delta) = 0.25630
        val = corollary1_outage(3, 10.0, 0.75, 0.25, 0.5)
        eps0 = 2**0.5 - 1
        x = eps0 * 4 / (10.0 * (0.75 - 0.25 * eps0))
        assert x == pytest.approx(0.256302, rel=1e-5)
        assert val == pytest.approx(float(gammainc(4, x)), abs=1e-12)
        assert val == pytest.approx(1.4659966e-4, rel=1e-6)

    def test_infeasible_split_returns_one(self):
        # outage is one whenever gamma0^2 <= gamma1^2 * eps0
        assert corollary1_outage(3, 100.0, 0.75, 0.25, 2.0) == 1.0
        assert corollary1_outage(3, 100.0, 0.5, 0.5, 2.0) == 1.0

    def test_bounds(self):
        for rho_db in range(-10, 60, 5):
            v = corollary1_outage(3, 10 ** (rho_db / 10), 0.75, 0.25, 0.5)
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("p0", [0, 1, 3, 10, 100, 1024])
    def test_relative_accuracy_against_gammainc(self, p0):
        # relative to the normal range: a subnormal has no relative precision,
        # and scipy flushes some of them to zero
        eps0 = 2**0.5 - 1
        for rho_db in range(0, 121, 2):
            rho = 10 ** (rho_db / 10)
            x = eps0 * (p0 + 1) / (rho * (0.75 - 0.25 * eps0))
            assert corollary1_outage(p0, rho, 0.75, 0.25, 0.5) == pytest.approx(
                float(gammainc(p0 + 1, x)), rel=1e-11, abs=sys.float_info.min), rho_db

    def test_split_is_a_power_allocation(self):
        # the same split PowerAllocation accepts, or the same ValueError
        for g0, g1 in ((2.0, -1.0), (0.75, 0.75), (0.0, 1.0)):
            with pytest.raises(ValueError):
                PowerAllocation(g0, g1)
            with pytest.raises(ValueError):
                corollary1_outage(3, 10.0, g0, g1, 0.5)


class TestDiversitySlope:
    def test_exact_power_law(self):
        pts = [CurvePoint(snr_db=db, metric="x", value=0.5 / 10 ** (db / 10),
                          ci_halfwidth=0.0, trials_used=10**9)
               for db in (10, 15, 20, 25)]
        assert diversity_slope(pts) == pytest.approx(-1.0, abs=1e-6)

    def test_fourth_order_power_law(self):
        pts = [CurvePoint(snr_db=db, metric="x", value=100.0 / 10 ** (4 * db / 10),
                          ci_halfwidth=0.0, trials_used=10**9)
               for db in (10, 12, 14, 16)]
        assert diversity_slope(pts) == pytest.approx(-4.0, abs=1e-6)

    def test_window_excludes_unreliable_points(self):
        # values above 0.1 or below 10/trials must not enter the fit
        good = [CurvePoint(snr_db=db, metric="x", value=0.05 / 10 ** ((db - 20) / 10),
                           ci_halfwidth=0.0, trials_used=10**6)
                for db in (20, 25, 30)]
        noise = [CurvePoint(snr_db=0, metric="x", value=0.9, ci_halfwidth=0.0, trials_used=10**6),
                 CurvePoint(snr_db=60, metric="x", value=1e-7, ci_halfwidth=0.0, trials_used=10**6)]
        assert diversity_slope(good + noise) == pytest.approx(-1.0, abs=1e-6)

    def test_insufficient_points(self):
        pts = [CurvePoint(snr_db=0, metric="x", value=0.5, ci_halfwidth=0.0, trials_used=100),
               CurvePoint(snr_db=10, metric="x", value=0.05, ci_halfwidth=0.0, trials_used=100)]
        with pytest.raises(EstimatorUndefinedError):
            diversity_slope(pts)


class TestCsv:
    def test_empty_list_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "snr_db,metric,value,ci_halfwidth,trials\n"
        assert read_csv_points(path) == []

    def test_single_point_round_trip(self, tmp_path):
        path = tmp_path / "one.csv"
        point = CurvePoint(snr_db=12.5, metric="u0_outage", value=0.123456789012,
                           ci_halfwidth=3.21e-4, trials_used=1000)
        emit_csv([point], path)
        text = path.read_text().splitlines()
        assert len(text) == 2
        assert "0.123456789012" in text[1]  # >= 9 significant digits survive
        assert read_csv_points(path) == [point]

    def test_rows_sorted_by_metric_then_snr(self, tmp_path):
        pts = [CurvePoint(10.0, "b", 0.1, 0.0, 10), CurvePoint(0.0, "b", 0.2, 0.0, 10),
               CurvePoint(5.0, "a", 0.3, 0.0, 10)]
        path = tmp_path / "sorted.csv"
        emit_csv(pts, path)
        got = read_csv_points(path)
        assert [(p.metric, p.snr_db) for p in got] == [("a", 5.0), ("b", 0.0), ("b", 10.0)]

    def test_write_error_has_path_context(self, tmp_path):
        bad = tmp_path / "no_dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv([], bad)

    def test_golden_regression(self, tmp_path):
        # frozen reference run of the outage-curve scenario shape
        cfg = small_config(trials=1024, snr_db=(0.0, 10.0, 20.0))
        golden = os.path.join(DATA_DIR, "golden_downlink_le.csv")
        out = tmp_path / "fresh.csv"
        emit_csv(run_scenario(cfg), out)
        with open(golden, "rb") as fh:
            assert out.read_bytes() == fh.read()

    @pytest.mark.parametrize("name", ["downlink_outage_dfe", "downlink_sum_rate_le",
                                      "uplink_fixed_per_subchannel", "uplink_adaptive_gain"])
    def test_shipped_config_golden(self, tmp_path, name):
        # `otfsnoma simulate --config configs/<name>.cfg --trials 512 --seed 1`,
        # byte for byte as frozen in tests/data
        out = tmp_path / "fresh.csv"
        config = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.cfg")
        assert cli.main(["simulate", "--config", config, "--out", str(out),
                         "--trials", "512", "--seed", "1"]) == 0
        with open(os.path.join(DATA_DIR, f"golden_{name}.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()


class TestRunScenario:
    def test_single_trial_deterministic(self):
        cfg = small_config(trials=1, snr_db=(10.0,))
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a == b
        for p in a:
            assert p.ci_halfwidth == 0.0
            assert p.trials_used == 1

    @pytest.mark.parametrize("overrides", [
        pytest.param(dict(), id="downlink-le"),
        pytest.param(dict(equalizer="dfe", n=4, m=4, k_users=4, trials=100,
                          u0_profile=ChannelProfile(paths=((0, 0), (1, 1), (2, 3)))),
                     id="downlink-dfe"),
        pytest.param(dict(direction="uplink", scheduler="per_subchannel"),
                     id="uplink-fixed-le"),
        pytest.param(dict(direction="uplink", rate_mode="adaptive", scheduler="per_subchannel",
                          equalizer="dfe", n=4, m=4, k_users=4, trials=100,
                          u0_profile=ChannelProfile(paths=((0, 0), (1, 1), (2, 3)))),
                     id="uplink-adaptive-dfe"),
    ])
    def test_worker_count_invariance(self, overrides):
        cfg = small_config(**{"trials": 300, "snr_db": (0.0, 10.0), **overrides})
        assert run_scenario(cfg, workers=1) == run_scenario(cfg, workers=2)

    def test_pool_has_no_more_workers_than_blocks(self, monkeypatch):
        # a fork-started pool launches all its processes at the first task,
        # so asking for 64 workers on a 2-block run must start only 2; the
        # stand-in executor records its size and maps in this process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        two_blocks = small_config(trials=300)
        assert run_scenario(two_blocks, workers=64) == run_scenario(two_blocks, workers=1)
        one_block = small_config(trials=300, snr_db=(0.0,))
        assert run_scenario(one_block, workers=2) == run_scenario(one_block, workers=1)
        assert sizes == [2]  # the 1-block run started no pool

    def test_probabilities_in_unit_interval(self):
        cfg = small_config(trials=2048)
        for p in run_scenario(cfg):
            if "outage" in p.metric and "sum_rate" not in p.metric:
                assert 0.0 <= p.value <= 1.0
            assert p.ci_halfwidth >= 0.0

    def test_ci_shrinks_with_trials(self):
        base = small_config(trials=2048, snr_db=(10.0,))
        big = small_config(trials=8192, snr_db=(10.0,))
        ci_a = {p.metric: p.ci_halfwidth for p in run_scenario(base)}
        ci_b = {p.metric: p.ci_halfwidth for p in run_scenario(big)}
        # quadrupling trials should roughly halve the halfwidth
        for metric in ("u0_outage", "noma_outage"):
            if ci_a[metric] > 0:
                assert ci_b[metric] < 0.75 * ci_a[metric]

    def test_uplink_adaptive_metrics(self):
        cfg = small_config(direction="uplink", rate_mode="adaptive",
                           scheduler="per_subchannel", trials=1024, snr_db=(20.0,))
        metrics = {p.metric for p in run_scenario(cfg)}
        assert metrics == {"ergodic_rate_gain", "u0_outage"}

    def test_uplink_fixed_metrics(self):
        cfg = small_config(direction="uplink", rate_mode="fixed",
                           scheduler="per_subchannel", trials=1024, snr_db=(20.0,))
        metrics = {p.metric for p in run_scenario(cfg)}
        assert metrics == {"noma_outage", "u0_outage", "u0_outage_stage2",
                           "outage_sum_rate_noma", "outage_sum_rate_oma"}

    def test_downlink_metrics(self):
        cfg = small_config(trials=512)
        metrics = {p.metric for p in run_scenario(cfg)}
        assert metrics == {"u0_outage", "u0_outage_first", "u0_outage_last",
                           "u0_outage_oma", "u0_outage_oma_first", "u0_outage_oma_last",
                           "noma_outage", "outage_sum_rate_noma", "outage_sum_rate_oma"}

    def test_le_marked_symbols_equal_aggregate(self):
        # under FD-LE every symbol shares one SINR, so the marked-symbol
        # curves coincide with the aggregate
        pts = run_scenario(small_config(trials=512))
        by = {(p.metric, p.snr_db): p.value for p in pts}
        for snr in (0.0, 10.0):
            assert by[("u0_outage", snr)] == by[("u0_outage_first", snr)]
            assert by[("u0_outage", snr)] == by[("u0_outage_last", snr)]

    def test_dfe_marked_symbols_ordered(self):
        pts = run_scenario(small_config(equalizer="dfe", trials=512, snr_db=(5.0,)))
        by = {p.metric: p.value for p in pts}
        assert by["u0_outage_first"] >= by["u0_outage_last"]


class TestKernelsMatchReceivers:
    """Each trial of a kernel block, redrawn from the same substream and
    replayed through the per-realization receivers, gives the same flags."""

    TRIALS = 16

    @staticmethod
    def _config(**overrides):
        return small_config(n=4, m=4, k_users=6,
                            u0_profile=ChannelProfile(paths=((0, 0), (1, 1), (2, 3))),
                            noma_profile=ChannelProfile(paths=((0, 0), (1, 0))), **overrides)

    @pytest.mark.parametrize("equalizer", ["le", "dfe"])
    def test_downlink(self, equalizer):
        cfg = self._config(equalizer=equalizer)
        grid, power = cfg.grid(), PowerAllocation.split(cfg.gamma0_sq)
        tx = build_tx_frame(grid, np.zeros((4, 4)), np.zeros((4, 4)), power)
        for rho in (1.0, 2.0, 4.0, 8.0):  # 0-9 dB: both outcomes occur
            samples = scenario_kernel(cfg, rho, substream(cfg.seed, 0), self.TRIALS)
            h0, _, hk, _, sel, _ = _channel_state(
                cfg, *_block_draws(cfg, substream(cfg.seed, 0), self.TRIALS))
            link = LinkConfig(rho=rho, rate_u0=cfg.rate_u0, rate_noma=cfg.rate_noma)
            for t in range(self.TRIALS):
                r0 = ChannelRealization(profile=cfg.u0_profile, gains=h0[t])
                for name, split in (("u0_outage", power), ("u0_outage_oma", PowerAllocation.oma())):
                    out = u0_receive(tx, r0, substream(0, t), equalizer, split, link).outage.ravel()
                    assert samples[name][t] == out.mean()
                    assert samples[name + "_first"][t] == out[0]
                    assert samples[name + "_last"][t] == out[-1]
                flags = []
                for l, i in enumerate(sel[t]):
                    ri = ChannelRealization(profile=cfg.noma_profile, gains=hk[t, i])
                    flags.append(noma_outage(noma_stage1(ri, grid, rho, power, equalizer),
                                             noma_stage2(ri, grid, rho, power.gamma1_sq, l + 1),
                                             link))
                assert samples["noma_outage"][t] == np.mean(flags)

    @pytest.mark.parametrize("equalizer", ["le", "dfe"])
    def test_uplink(self, equalizer):
        cfg = self._config(direction="uplink", scheduler="per_subchannel", equalizer=equalizer)
        grid = cfg.grid()
        eps0, epsi = 2.0**cfg.rate_u0 - 1.0, 2.0**cfg.rate_noma - 1.0
        for rho in (1.0, 2.0, 4.0, 8.0):  # 0-9 dB: both outcomes occur
            samples = scenario_kernel(cfg, rho, substream(cfg.seed, 0), self.TRIALS)
            h0, _, hk, _, sel, _ = _channel_state(
                cfg, *_block_draws(cfg, substream(cfg.seed, 0), self.TRIALS))
            for t in range(self.TRIALS):
                r0 = ChannelRealization(profile=cfg.u0_profile, gains=h0[t])
                stage2_out = uplink_stage2_sinrs(r0, grid, rho, equalizer) < eps0
                assert samples["u0_outage_stage2"][t] == stage2_out.mean()
                dk = np.array([nomauser_diagonalize(ChannelRealization(profile=cfg.noma_profile,
                                                                       gains=g), grid)
                               for g in hk[t]])
                assert np.array_equal(sel[t], per_subchannel_schedule(UserPool.from_diagonals(dk)))
                d0 = diagonalize(build_block_circulant(r0, grid)).d_values
                cell_ok = uplink_stage1_sinr(dk[sel[t], np.arange(4)], d0, rho) > epsi
                assert samples["noma_outage"][t] == 1.0 - cell_ok.mean()
                assert samples["u0_outage"][t] == 1.0 - (~stage2_out & cell_ok.all()).mean()


class TestSubBatches:
    """The kernel takes its block's draws first and computes the rest on
    sub-batches of harness.SUB_BATCH_CELLS trial-cells; each trial's samples
    keep their bits whatever the sub-batch size."""

    TRIALS = 100
    SINGULAR = 42  # equal gains on U0's delays 2 and 6 null every odd delay bin of M = 8

    @pytest.mark.parametrize("overrides", [
        dict(equalizer="le"),
        dict(equalizer="dfe"),
        dict(direction="uplink", scheduler="per_subchannel"),
        dict(direction="uplink", scheduler="greedy", rate_mode="adaptive", equalizer="dfe"),
        # one spectrum row per trial, where numpy calls gemv instead of gemm;
        # the adaptive rate reads the spectra's bits, not only outage flags
        dict(direction="uplink", rate_mode="adaptive", k_users=1, scheduler="greedy",
             noma_profile=ChannelProfile(paths=((0, 0), (1, 0), (3, 0)))),
        dict(direction="uplink", rate_mode="adaptive", n=1, scheduler="per_subchannel",
             u0_profile=ChannelProfile(paths=((2, 0), (6, 0), (5, 0), (7, 0)))),
    ], ids=["downlink-le-random", "downlink-dfe-random", "uplink-fixed", "uplink-adaptive",
            "uplink-adaptive-one-static-user", "uplink-adaptive-n1"])
    def test_samples_keep_their_bits(self, monkeypatch, overrides):
        cfg = small_config(**overrides)
        draw_gains = harness.sample_gain_matrix

        def with_a_singular_u0(profile, rng, count):
            gains = draw_gains(profile, rng, count)
            assert gains.flags.writeable  # the kernel sees the write below
            if profile == cfg.u0_profile:
                gains[self.SINGULAR] = [0.5, 0.5, 0.0, 0.0]
            return gains

        monkeypatch.setattr(harness, "sample_gain_matrix", with_a_singular_u0)

        def run(step):  # sub-batches of ``step`` trials, the last one shorter
            monkeypatch.setattr(harness, "SUB_BATCH_CELLS", step * max(cfg.n, cfg.k_users) * cfg.m)
            return scenario_kernel(cfg, 10.0, substream(cfg.seed, 0), self.TRIALS)

        whole = run(self.TRIALS)
        for step in (7, 1):
            parts = run(step)
            assert parts.keys() == whole.keys()
            for name, samples in whole.items():
                assert samples.shape == (self.TRIALS,)
                assert np.array_equal(parts[name], samples), name
        stage2 = "u0_outage" if cfg.direction == "downlink" or cfg.rate_mode == "adaptive" \
            else "u0_outage_stage2"
        assert whole[stage2][self.SINGULAR] == 1.0
        assert whole[stage2].mean() < 1.0

    @pytest.mark.parametrize("overrides", [
        dict(n=32, k_users=8),
        dict(n=4, k_users=32),
        dict(direction="uplink", scheduler="per_subchannel", n=32, k_users=8),
        dict(direction="uplink", scheduler="per_subchannel", n=4, k_users=32),
    ], ids=["downlink-n>k", "downlink-n<k", "uplink-n>k", "uplink-n<k"])
    def test_dfe_pivots_fit_one_sub_batch(self, monkeypatch, overrides):
        # the kernel's sub-batches, sized by max(N, K)·M, never hand the
        # FD-DFE pivots more trials than SUB_BATCH_CELLS // (N·M), so the
        # pivots need no sub-batches of their own
        cfg = small_config(equalizer="dfe", **overrides)
        trials = 600
        whole = scenario_kernel(cfg, 10.0, substream(cfg.seed, 0), trials)
        pivots, calls = harness.batch_dfe_lambdas, []

        def recorded(doppler_taps, delay_taps, gains, n, m):
            calls.append((len(gains), n, m))
            return pivots(doppler_taps, delay_taps, gains, n, m)

        monkeypatch.setattr(harness, "batch_dfe_lambdas", recorded)
        samples = scenario_kernel(cfg, 10.0, substream(cfg.seed, 0), trials)
        bound = max(1, harness.SUB_BATCH_CELLS // (cfg.n * cfg.m))
        assert len(calls) > 1 and sum(t for t, _, _ in calls) == trials
        assert all(t <= bound and (n, m) == (cfg.n, cfg.m) for t, n, m in calls)
        assert samples.keys() == whole.keys()
        for name, values in whole.items():
            assert np.array_equal(samples[name], values), name


def test_nan_spectrum_puts_the_trial_in_outage(monkeypatch):
    # a NaN |D|² makes φ = inf: U0 is in outage in trial 3, and in trial 5
    # every static user fails stage I, so every scheduled user is in outage
    cfg = small_config()
    spectrum = harness.power_spectrum

    def with_nans(profile, gains, n, m):
        power = spectrum(profile, gains, n, m)
        if profile == cfg.u0_profile:
            power[3, 1, 2] = np.nan
        else:
            power[5, :, 0, 4] = np.nan
        return power

    monkeypatch.setattr(harness, "power_spectrum", with_nans)
    samples = scenario_kernel(cfg, 1e6, substream(cfg.seed, 0), 8)
    assert samples["u0_outage"][3] == samples["u0_outage_oma"][3] == 1.0
    assert samples["noma_outage"][5] == 1.0
    assert samples["u0_outage"].mean() < 1.0 and samples["noma_outage"].mean() < 1.0


def test_block_draws_hold_16_bytes_per_gain():
    # the gains are the normals scaled in place and read as complex numbers:
    # 16 B per gain value, plus the random scheduler's (T, K) uniforms.  A
    # complex multiply of the normals peaked at about 48 B per gain value.
    cfg = small_config(n=16, m=16, k_users=64)
    trials = 4096
    gains = trials * (cfg.k_users * cfg.noma_profile.num_paths + cfg.u0_profile.num_paths)
    expected = 16 * gains + 8 * trials * cfg.k_users
    tracemalloc.start()
    try:
        harness._block_draws(cfg, substream(1, 0), trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expected <= peak < expected + 2**20


@pytest.mark.parametrize("equalizer, bound_mib", [("le", 24), ("dfe", 32)])
def test_block_memory_is_bounded_by_the_sub_batch(equalizer, bound_mib):
    # a 4096-trial block on 16×16 peaked at 68.3 MiB under either equalizer
    # when every (T, N, M) array was held for the whole block; with
    # sub-batches it peaks at 7.2 MiB (FD-LE) and 16.0 MiB (FD-DFE)
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "downlink_sum_rate_le.cfg")
    cfg = dataclasses.replace(parse_config_file(path), equalizer=equalizer)
    scenario_kernel(cfg, 10.0, substream(1, 0), 8)  # fill the steering-factor cache
    tracemalloc.start()
    try:
        scenario_kernel(cfg, 10.0, substream(1, 0), 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20
