import dataclasses
import glob
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from otfsnoma import (ChannelProfile, ConfigError, CurvePoint, EstimatorUndefinedError,
                      PowerAllocation, ScenarioConfig, corollary1_outage, diversity_slope, emit_csv,
                      read_csv_points, run_scenario)
from otfsnoma.harness import _draw, downlink_kernel, parse_config_text, uplink_kernel
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
        dict(equalizer="dfe", n=128, m=64, k_users=64),  # dense Gram beyond MAX_DENSE_CELLS
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
            samples = downlink_kernel(cfg, rho, substream(cfg.seed, 0), self.TRIALS)
            h0, _, hk, _, sel, _ = _draw(cfg, substream(cfg.seed, 0), self.TRIALS)
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
            samples = uplink_kernel(cfg, rho, substream(cfg.seed, 0), self.TRIALS)
            h0, _, hk, _, sel, _ = _draw(cfg, substream(cfg.seed, 0), self.TRIALS)
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
