import concurrent.futures
import dataclasses
import glob
import math
import os
import platform
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from otfsnoma import (ChannelProfile, ConfigError, CurvePoint, EstimatorUndefinedError,
                      PowerAllocation, ScenarioConfig, corollary1_outage, diversity_slope, emit_csv,
                      read_csv_points, run_scenario, table1_profile)
from otfsnoma import cli, equalizers, harness
from otfsnoma.equalizers import SINGULARITY_EPS
from otfsnoma.harness import _block_draws, _channel_state, parse_config_file, parse_config_text
from otfsnoma.rng import substream
from otfsnoma.scheduling import batch_schedule, batch_scheduled_gains, schedule_draws
from otfsnoma.transforms import coupling_lattice
from oracles import (ChannelRealization, Grid, LinkConfig, UserPool, build_block_circulant,
                     build_tx_frame, diagonalize, exact_u0_outage_counts, noma_outage, noma_stage1,
                     noma_stage2, nomauser_diagonalize, per_subchannel_schedule, scenario_kernel,
                     u0_receive, uplink_stage1_sinr, uplink_stage2_sinrs)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
# The shipped configs whose CSVs at --trials 512 --seed 1 are frozen in tests/data.
GOLDEN_CONFIGS = ("downlink_outage_dfe", "downlink_sum_rate_le", "uplink_fixed_per_subchannel",
                  "uplink_adaptive_gain")
SHIPPED_CONFIGS = {os.path.basename(p): open(p, encoding="utf-8").read()
                   for p in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))}
EDGE_VALUES = ("", "nan", "inf", "-inf", "0", "-1", "1e400", "1e-320", "99999999999999999999",
               "99999999999999999999:0", "0:99999999999999999999", "1:2:3", "0:0,0:0", ",", "0,inf",
               "0,nan", "5,0", "dfe", "uplink", "greedy", "adaptive", "1" * 5000)
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioConfig))
# Integers at the edges of the 64-bit ranges: ±2⁶³ and 2⁶⁴ ± 1.
LARGE_INTS = (2**63 - 1, 2**63, -2**63, -2**63 - 1, 2**64 - 1, 2**64, 2**64 + 1)


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

# For each ScenarioConfig field: a shipped config in which the field matters,
# and another valid value for it.
DEAD_KEY_PROBES = {
    "direction": ("downlink_sum_rate_le.cfg", "uplink"),
    "n": ("downlink_sum_rate_le.cfg", 8),
    "m": ("downlink_sum_rate_le.cfg", 15),
    "k_users": ("uplink_fixed_per_subchannel.cfg", 4),
    "gamma0_sq": ("downlink_sum_rate_le.cfg", 0.5),
    "rate_u0": ("downlink_sum_rate_le.cfg", 1.0),
    "rate_noma": ("downlink_sum_rate_le.cfg", 0.5),
    "equalizer": ("downlink_sum_rate_le.cfg", "dfe"),
    "snr_db": ("downlink_sum_rate_le.cfg", (0.0, 20.0)),
    "trials": ("downlink_sum_rate_le.cfg", 300),
    "seed": ("downlink_sum_rate_le.cfg", 1),
    "scheduler": ("downlink_sum_rate_le.cfg", "greedy"),
    "rate_mode": ("uplink_fixed_per_subchannel.cfg", "adaptive"),
    "u0_profile": ("downlink_outage_dfe.cfg", ChannelProfile(paths=((0, 0), (3, 1)))),
    "noma_profile": ("downlink_sum_rate_le.cfg", ChannelProfile(paths=((0, 0),))),
}


class TestConfig:
    def test_parse_round_trip(self):
        cfg = parse_config_text(CONFIG_TEXT)
        assert cfg == small_config(scheduler="random")

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
    @given(st.sampled_from(sorted(SHIPPED_CONFIGS)),
           st.sampled_from(CONFIG_KEYS),
           st.one_of(st.sampled_from(EDGE_VALUES), st.integers().map(str), st.floats().map(repr),
                     st.sampled_from(LARGE_INTS).map(str),
                     st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")))))
    @example("downlink_sum_rate_le.cfg", "gamma0_sq", "1e-17")  # γ₁² = 1 − 1e-17 rounds to 1
    def test_parse_fuzz_raises_only_config_errors(self, name, key, value):
        """Set one key of a shipped config: the text parses and runs one trial
        at its first SNR point to finite values, or the ConfigError names a
        config key or a line."""
        lines = [s for s in SHIPPED_CONFIGS[name].splitlines()
                 if s.partition("=")[0].strip() != key]
        try:
            cfg = parse_config_text("\n".join(lines + [f"{key} = {value}"]))
        except ConfigError as exc:
            assert exc.field in CONFIG_KEYS or re.fullmatch(r"line \d+", exc.field)
            return
        points = run_scenario(dataclasses.replace(cfg, trials=1, snr_db=cfg.snr_db[:1]))
        assert points and all(math.isfinite(p.value) and math.isfinite(p.ci_halfwidth)
                              for p in points)

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
        dict(equalizer="dfe", n=128, m=64, k_users=64),  # beyond MAX_TRIAL_CELLS
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
        (dict(equalizer="dfe", n=128, m=64, k_users=64), "n"),
        (dict(rate_u0=math.nan), "rate_u0"),
        (dict(rate_noma=math.inf), "rate_noma"),
        (dict(rate_noma=1024.0), "rate_noma"),
        (dict(snr_db=(math.nan,)), "snr_db"),
        (dict(snr_db=(0.0, math.inf)), "snr_db"),
        (dict(snr_db=(0.0, 4000.0)), "snr_db"),
        (dict(n=16.5), "n"),
        (dict(k_users=16.5), "k_users"),
        (dict(u0_profile=ChannelProfile(paths=((10**20, 0),))), "u0_profile"),
        (dict(noma_profile=ChannelProfile(paths=((0, 10**20),))), "noma_profile"),
        (dict(seed=-1), "seed"),
        (dict(seed=2**64), "seed"),
        (dict(trials=100.5), "trials"),
        (dict(seed=1.5), "seed"),
        (dict(m=8.0), "m"),
        (dict(rate_mode="adaptive"), "rate_mode"),  # the downlink reads no rate mode
        (dict(equalizer="le", n=128, m=64, k_users=64), "n"),  # beyond MAX_TRIAL_CELLS
        (dict(n=99999999999999999999), "n"),
        (dict(k_users=10**20), "k_users"),
        (dict(k_users=513), "k_users"),  # 4104 static-user cells
        (dict(n=np.int64(2**62)), "n"),  # n·m wraps to 0 in int64
        (dict(gamma0_sq=1e-17), "gamma0_sq"),  # γ₁² = 1 − 1e-17 rounds to 1
    ])
    def test_validation_error_names_one_key(self, overrides, field):
        with pytest.raises(ConfigError) as exc:
            small_config(**overrides)
        assert exc.value.field == field

    def test_numpy_integers_pass(self):
        ints = dict(n=np.int64(8), m=np.int32(8), k_users=np.int16(8), trials=np.int64(512),
                    seed=np.uint64(1234))
        assert small_config(**ints) == small_config()

    def test_delta_f_is_an_unknown_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text(CONFIG_TEXT + "\ndelta_f = 7500\n")
        assert exc.value.field == "delta_f"

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ScenarioConfig)])
    def test_no_config_key_is_dead(self, name):
        """Every field changes the curves of a shipped config in which it
        matters.  A field without an entry here fails."""
        path, value = DEAD_KEY_PROBES[name]
        base = dataclasses.replace(parse_config_file(os.path.join(CONFIG_DIR, path)),
                                   trials=256, snr_db=(0.0, 10.0))
        changed = dataclasses.replace(base, **{name: value})
        assert run_scenario(changed) != run_scenario(base)


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

    @pytest.mark.parametrize("name", GOLDEN_CONFIGS)
    def test_shipped_config_golden(self, tmp_path, name):
        # `otfsnoma simulate --config configs/<name>.cfg --trials 512 --seed 1`,
        # byte for byte as frozen in tests/data
        out = tmp_path / "fresh.csv"
        config = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.cfg")
        assert cli.main(["simulate", "--config", config, "--out", str(out),
                         "--trials", "512", "--seed", "1"]) == 0
        with open(os.path.join(DATA_DIR, f"golden_{name}.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_shipped_config_goldens_on_other_blas_kernels(self, tmp_path, core):
        # OpenBLAS built for several CPUs picks its kernels when it starts,
        # and OPENBLAS_CORETYPE makes it pick another CPU's.  The spectra are
        # BLAS products whose last bits follow the kernel, but every golden
        # CSV keeps its bytes.  A core type that leaves U0's spectrum bits as
        # they are tests nothing, and is skipped.
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("OPENBLAS_CORETYPE names x86-64 cores")
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        except (TypeError, KeyError):  # numpy < 1.26 has no mode
            blas = ""
        if "openblas" not in blas.lower():
            pytest.skip(f"numpy's BLAS is {blas or 'unknown'}, not OpenBLAS")
        default = _run_on_blas_core(None, tmp_path)
        if _run_on_blas_core(core, tmp_path, GOLDEN_CONFIGS) == default:
            pytest.skip(f"OPENBLAS_CORETYPE={core} leaves U0's spectrum bits unchanged")
        for name in GOLDEN_CONFIGS:
            with open(os.path.join(DATA_DIR, f"golden_{name}.csv"), "rb") as fh:
                assert (tmp_path / f"{name}.csv").read_bytes() == fh.read(), name


_ON_BLAS_CORE = """
import dataclasses, hashlib, os, sys
sys.path.insert(0, sys.argv[1])
from otfsnoma import emit_csv, parse_config_file, run_scenario, table1_profile
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.rng import substream
from otfsnoma.transforms import power_spectrum
prof = table1_profile()
power = power_spectrum(prof, sample_gain_matrix(prof, substream(1, 0), 256), 16, 16)
print(hashlib.sha256(power.tobytes()).hexdigest())
for name in sys.argv[4:]:
    cfg = parse_config_file(os.path.join(sys.argv[2], name + ".cfg"))
    cfg = dataclasses.replace(cfg, trials=512, seed=1)
    emit_csv(run_scenario(cfg), os.path.join(sys.argv[3], name + ".csv"))
"""


def _run_on_blas_core(core, out_dir, names=()) -> str:
    """In a fresh interpreter with OPENBLAS_CORETYPE=``core`` (unset if
    None), write the CSV of each shipped config in ``names`` at --trials 512
    --seed 1 to ``out_dir``; return the digest of U0's Table 1 spectrum on
    one 256-trial sub-batch of 16×16."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    src = os.path.dirname(os.path.dirname(harness.__file__))
    out = subprocess.run([sys.executable, "-c", _ON_BLAS_CORE, src, CONFIG_DIR, str(out_dir),
                          *names], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


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

        # run_scenario imports concurrent.futures only when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
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
        grid, power = Grid(cfg.n, cfg.m), PowerAllocation.split(cfg.gamma0_sq)
        tx = build_tx_frame(grid, np.zeros((4, 4)), np.zeros((4, 4)), power)
        for rho in (1.0, 2.0, 4.0, 8.0):  # 0-9 dB: both outcomes occur
            samples = scenario_kernel(cfg, rho, substream(cfg.seed, 0), self.TRIALS)
            h0, hk, sched = _block_draws(cfg, substream(cfg.seed, 0), self.TRIALS)
            sel = batch_schedule(_channel_state(cfg, h0, hk)[1], cfg.scheduler, sched, cfg.m)
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
        grid = Grid(cfg.n, cfg.m)
        eps0, epsi = 2.0**cfg.rate_u0 - 1.0, 2.0**cfg.rate_noma - 1.0
        for rho in (1.0, 2.0, 4.0, 8.0):  # 0-9 dB: both outcomes occur
            samples = scenario_kernel(cfg, rho, substream(cfg.seed, 0), self.TRIALS)
            h0, hk, sched = _block_draws(cfg, substream(cfg.seed, 0), self.TRIALS)
            sel = batch_schedule(_channel_state(cfg, h0, hk)[1], cfg.scheduler, sched, cfg.m)
            for t in range(self.TRIALS):
                r0 = ChannelRealization(profile=cfg.u0_profile, gains=h0[t])
                stage2_out = uplink_stage2_sinrs(r0, grid, rho, equalizer) < eps0
                assert samples["u0_outage_stage2"][t] == stage2_out.mean()
                dk = np.array([nomauser_diagonalize(ChannelRealization(profile=cfg.noma_profile,
                                                                       gains=g), grid)
                               for g in hk[t]])
                assert np.array_equal(sel[t], per_subchannel_schedule(UserPool.from_diagonals(dk)))
                d0 = diagonalize(build_block_circulant(r0, grid)).d_values
                cell_ok = uplink_stage1_sinr(dk[sel[t], np.arange(4)], d0, rho) >= epsi
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
        # the kernel gathers the trials that U0's pivot bracket leaves
        # undecided, in order, and hands the FD-DFE pivots at most one
        # sub-batch's trials a call, SUB_BATCH_CELLS // (max(N, K)·M), never
        # more than SUB_BATCH_CELLS // (N·M), so the pivots need no
        # sub-batches of their own.  At 0 dB 361–488 of the 600 trials are
        # undecided, so the gather takes two calls.
        cfg = small_config(equalizer="dfe", **overrides)
        trials, rho = 600, 1.0
        whole = scenario_kernel(cfg, rho, substream(cfg.seed, 0), trials)
        pivots, calls = harness.batch_dfe_lambdas, []

        def recorded(doppler_taps, delay_taps, gains, n, m):
            calls.append((gains.copy(), n, m))
            return pivots(doppler_taps, delay_taps, gains, n, m)

        monkeypatch.setattr(harness, "batch_dfe_lambdas", recorded)
        samples = scenario_kernel(cfg, rho, substream(cfg.seed, 0), trials)
        bound = harness.SUB_BATCH_CELLS // (max(cfg.n, cfg.k_users) * cfg.m)
        assert bound <= harness.SUB_BATCH_CELLS // (cfg.n * cfg.m)
        assert len(calls) > 1
        assert all(0 < len(g) <= bound and (n, m) == (cfg.n, cfg.m) for g, n, m in calls)
        h0, a0 = _u0_state(cfg, substream(cfg.seed, 0), trials)
        undecided = _bracket_undecided(cfg, rho, h0, a0)
        assert 0 < undecided.sum() < trials
        assert np.array_equal(np.concatenate([g for g, _, _ in calls]), h0[undecided])
        assert samples.keys() == whole.keys()
        for name, values in whole.items():
            assert np.array_equal(samples[name], values), name

    @pytest.mark.parametrize("overrides", [
        dict(equalizer="le"),
        dict(equalizer="dfe"),
        dict(direction="uplink", scheduler="per_subchannel", equalizer="dfe"),
        dict(direction="uplink", scheduler="random", rate_mode="adaptive"),
    ], ids=["downlink-le", "downlink-dfe", "uplink-fixed", "uplink-adaptive"])
    def test_stages_read_the_spectra_they_are_given(self, overrides):
        # a sub-batch's stages overwrite its channel state as they go: U0's
        # counts write φ's reciprocals over a0, the downlink's stage I the
        # static users' |D̃|⁻² over ak.  Its part equals that of each stage
        # run alone on its own copy of the state, so no stage reads what
        # another one wrote.
        cfg = small_config(**overrides)
        rho, trials = 4.0, 64
        oma = PowerAllocation.oma()
        splits = (PowerAllocation.split(cfg.gamma0_sq), oma) if cfg.direction == "downlink" \
            else (oma,)
        noma_of = harness._downlink_noma if cfg.direction == "downlink" else harness._uplink_noma
        h0, hk, draws = _block_draws(cfg, substream(cfg.seed, 0), trials)
        a0, ak = (s.copy() for s in _channel_state(cfg, h0, hk))
        counts, undecided = harness.u0_outage_counts(cfg, rho, h0, a0.copy(), splits)
        noma = noma_of(cfg, rho, a0.copy(), ak.copy(), draws)
        part = harness._sub_batch_part(cfg, splits, rho, h0, hk, draws)
        assert 0 < undecided.sum() < trials if cfg.equalizer == "dfe" else not undecided.any()
        assert part[0] == rho
        for got, expected in zip(part[1:], (h0[undecided], counts, undecided, noma)):
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("scheduler", harness.SCHEDULERS)
def test_scheduled_gains_are_the_selections_gains(scheduler):
    # The uplink reads only the scheduled users' gains; under per-subchannel
    # scheduling it takes each subchannel's max instead of the argmax.  Every
    # scheduler's gains equal those of batch_schedule's selection bit for
    # bit, on random draws, on exact ties (on the max, on every user, at
    # zero and at inf) and on rows holding NaN or inf.
    cfg = small_config(direction="uplink", scheduler=scheduler)
    trials, k, m = 40, cfg.k_users, cfg.m
    rng = substream(5, 0)
    ak = rng.random((trials, k, m))
    ak[1] = 0.5
    ak[2, [1, 4], 3] = 2.0
    ak[3, :, 0] = 0.0
    ak[4, 2, 5] = np.nan
    ak[5, 6, 1] = np.inf
    ak[6, [0, 3], 2] = np.inf
    ak[7, 3] = np.nan
    ak[8, :, 7] = np.nan
    draws = schedule_draws(scheduler, rng, trials, k)
    sel = batch_schedule(ak, scheduler, draws, m)
    expected = ak[np.arange(trials)[:, None], sel, np.arange(m)]
    gains = batch_scheduled_gains(ak, scheduler, draws, m, batch_schedule)
    assert gains.shape == (trials, m)
    assert np.array_equal(gains, expected, equal_nan=True)
    number = ~np.isnan(expected)
    assert np.array_equal(gains[number].view(np.uint64), expected[number].view(np.uint64))


@pytest.mark.parametrize("rate_mode", ["fixed", "adaptive"])
def test_uplink_cells_broadcast_the_lattice_spectrum(rate_mode):
    # U0's paths on 8×8 have e = 2 and d = 4, so its spectrum is one (4, 2)
    # copy of the grid's.  Broadcast against the scheduled gains, it gives
    # every cell's stage-I SINR: cell (k, l) reads the spectrum at
    # (k mod 4, l mod 2) and the gain of subchannel l.  The cells in outage
    # are those of the tiled (T, 8, 8) spectrum, and the adaptive rate is
    # their mean to 1e-12 relative, summed in another order.  Table 1 on
    # 16×16 has e = 1 and d = 4: there the cells are in the (T, 16, 16)
    # order, and the adaptive rate keeps the bits of the reference's mean.
    rho, trials = 10.0, 64
    for n, profile, shape, exact in (
            (8, ChannelProfile(paths=((1, 0), (1, 2), (1, 4), (5, 6))), (4, 2), False),
            (16, table1_profile(), (16, 4), True)):
        cfg = small_config(direction="uplink", scheduler="per_subchannel", rate_mode=rate_mode,
                           n=n, m=n, u0_profile=profile)
        h0, hk, sched = _block_draws(cfg, substream(cfg.seed, 0), trials)
        a0, ak = _channel_state(cfg, h0, hk)
        assert a0.shape == (trials, *shape)
        gsel = ak[np.arange(trials)[:, None], batch_schedule(ak, cfg.scheduler, sched, cfg.m),
                  np.arange(cfg.m)]
        sinr1 = rho * gsel[:, None, :] / (rho * np.tile(a0, (1, n // shape[0], n // shape[1]))
                                          + 1.0)
        stage1 = harness._uplink_noma(cfg, rho, a0, ak, sched)
        if rate_mode == "adaptive":
            rate = np.log2(1.0 + sinr1).mean(axis=(1, 2))
            if exact:
                assert np.array_equal(stage1, rate)
            else:
                assert np.all(np.abs(stage1 / rate - 1.0) <= 1e-12)
        else:
            cells_ok = np.count_nonzero(sinr1 >= 2.0**cfg.rate_noma - 1.0, axis=(1, 2))
            assert 0 < cells_ok.min() and cells_ok.max() == n * n
            assert np.array_equal(stage1, cells_ok)


def _u0_state(cfg, rng, trials):
    """A block's U0 gains and its squared lattice spectrum, a copy that
    outlives the thread's next kernel call."""
    h0, hk, _ = _block_draws(cfg, rng, trials)
    return h0, _channel_state(cfg, h0, hk)[0].copy()


def _bracket_undecided(cfg, rho, h0, a0):
    """The trials whose U0 outage flags some split leaves open between the
    pivot bracket's ends ν = (1−δ)/Σ|h_p|² and φ(1+δ), or whose φ·Σ|h_p|² is
    outside [1 − δ, BRACKET_MAX_COND]."""
    eps0, slack = 2.0**cfg.rate_u0 - 1.0, harness.BRACKET_SLACK
    splits = [PowerAllocation.oma()]
    if cfg.direction == "downlink":
        splits.append(PowerAllocation.split(cfg.gamma0_sq))
    phi = harness.batch_noise_enhancement(a0, (-2, -1))
    energy = np.sum(np.abs(h0) ** 2, axis=1)
    with np.errstate(all="ignore"):
        cond, hi, lo = phi * energy, phi * (1.0 + slack), (1.0 - slack) / energy
    trusted = (cond >= 1.0 - slack) & (cond <= harness.BRACKET_MAX_COND)
    decided = [trusted & ((split.sinr(rho, lo) < eps0)
                          | ((split.sinr(rho, hi) >= eps0) & (hi <= 1.0 / SINGULARITY_EPS)))
               for split in splits]
    return ~np.logical_and.reduce(decided)


class TestPivotBracket:
    """U0's outage counts, decided for most FD-DFE trials from the pivot
    bracket [1/φ, Σ|h_p|²] and for every FD-LE trial from the point φ
    (harness.u0_outage_counts), keep the bits of every trial's exact ν
    (oracles.exact_u0_outage_counts)."""

    TRIALS = 100
    SINGULAR, TINY = TestSubBatches.SINGULAR, 17
    RHO_DB = tuple(range(-30, 301, 5)) + (3000,)

    @staticmethod
    def _both(monkeypatch, cfg, rho, trials):
        """The kernel's samples, and those of the kernel with every trial's
        outage counts from its exact ν."""
        fast = scenario_kernel(cfg, rho, substream(cfg.seed, 0), trials)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "u0_outage_counts", exact_u0_outage_counts)
            exact = scenario_kernel(cfg, rho, substream(cfg.seed, 0), trials)
        assert fast.keys() == exact.keys()
        return fast, exact

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(gamma0_sq=0.55, n=4, u0_profile=ChannelProfile(paths=((2, 0), (6, 0), (5, 1)))),
        dict(u0_profile=ChannelProfile(paths=((1, 0), (1, 2), (1, 4), (5, 6)))),
        dict(direction="uplink", scheduler="per_subchannel"),
        dict(direction="uplink", scheduler="per_subchannel", rate_mode="adaptive"),
        dict(equalizer="le"),
        dict(equalizer="le", direction="uplink", scheduler="per_subchannel"),
    ], ids=["downlink", "downlink-0.55", "downlink-lattice", "uplink-fixed", "uplink-adaptive",
            "downlink-le", "uplink-fixed-le"])
    def test_samples_equal_the_exact_pivots(self, monkeypatch, overrides):
        # from -30 to 300 dB and at 3000 dB, with an equal-gain singular U0 in
        # trial 42; U0 gains scaled by 1e-7 in trial 17, well conditioned but
        # with |D|² ≈ 1e-14, so φ ≈ 1e14 > 1/SINGULARITY_EPS, singular under
        # both equalizers; and U0 spectra that do not fit the gains: a NaN,
        # so φ = inf, in trial 3, and all inf, so φ = 0, in trial 7.  The
        # lattice case's U0 taps split its Gram matrix into e·d = 8 copies
        # (e = 2, d = 4), so each of its pivots stands for 8 symbols, and its
        # spectrum is one (4, 2) copy.  U0's spectrum is the one computed
        # from (T, P) gains, not the static users' (T, K, P), and on its
        # lattice's reduced profile, not cfg.u0_profile.
        cfg = small_config(**{"equalizer": "dfe", **overrides})
        draw_gains, spectrum = harness.sample_gain_matrix, harness.power_spectrum
        patched = {"gains": 0, "spectra": 0}

        def with_odd_u0_gains(profile, rng, count):
            gains = draw_gains(profile, rng, count)
            if profile == cfg.u0_profile:
                gains[self.SINGULAR] = [0.5, 0.5] + [0.0] * (profile.num_paths - 2)
                gains[self.TINY] *= 1e-7
                patched["gains"] += 1
            return gains

        def with_odd_u0_spectra(profile, gains, n, m, **out):
            power = spectrum(profile, gains, n, m, **out)
            if gains.ndim == 2:
                power[3, 1, 1] = np.nan
                power[7] = np.inf
                patched["spectra"] += 1
            return power

        monkeypatch.setattr(harness, "sample_gain_matrix", with_odd_u0_gains)
        monkeypatch.setattr(harness, "power_spectrum", with_odd_u0_spectra)
        for rho_db in self.RHO_DB:
            fast, exact = self._both(monkeypatch, cfg, 10.0 ** (rho_db / 10.0), self.TRIALS)
            for name, samples in exact.items():
                assert np.array_equal(fast[name], samples, equal_nan=True), (rho_db, name)
            assert fast["u0_outage"][self.SINGULAR] == fast["u0_outage"][self.TINY] == 1.0
        assert patched == {"gains": 2 * len(self.RHO_DB), "spectra": 2 * len(self.RHO_DB)}

    @pytest.mark.parametrize("offsets", [None, np.geomspace(1e-6, 2e-6, 13)],
                             ids=["typical", "ill-conditioned"])
    def test_epsilon_tie(self, monkeypatch, offsets):
        # ρ is set where U0's OMA flag changes between ν = φ·(1 + s) and the
        # trial's largest computed ν, which rounding puts above φ: by about
        # 1e-12 in a typical trial (s = 0), and by more than the slack in an
        # ill-conditioned one (s = BRACKET_SLACK, φ·Σ|h_p|² ~ 1e11) made of
        # equal gains on U0's delays 2 and 6 at an offset.  The exact flag
        # of that symbol is True, so the trial must not be decided "none in
        # outage": neither with no slack nor without the trust bound.
        cfg = small_config(equalizer="dfe", direction="uplink", scheduler="per_subchannel")
        profile, trials, t = cfg.u0_profile, 64, 5
        h0, a0 = _u0_state(cfg, substream(cfg.seed, 0), trials)
        s = 0.0
        if offsets is not None:  # the offset whose pivots leave the bracket furthest
            s = harness.BRACKET_SLACK
            rows = np.zeros((len(offsets), profile.num_paths), dtype=complex)
            rows[:, 0], rows[:, 1] = 0.6 - 0.3j, 0.6 - 0.3j + offsets
            phis = harness.batch_noise_enhancement(harness.power_spectrum(profile, rows, 8, 8),
                                                   (-2, -1))
            lam, ok = harness.batch_dfe_lambdas(profile.doppler_taps, profile.delay_taps, rows,
                                                8, 8)
            best = np.argmax(np.where(ok, (1.0 / lam).max(axis=1) / phis, 0.0))
            assert (1.0 / lam[best]).max() > phis[best] * (1.0 + 2 * s)
            draw_gains = harness.sample_gain_matrix

            def with_a_null(prof, rng, count):
                gains = draw_gains(prof, rng, count)
                if prof == profile:
                    gains[t] = rows[best]
                return gains

            monkeypatch.setattr(harness, "sample_gain_matrix", with_a_null)
            h0, a0 = _u0_state(cfg, substream(cfg.seed, 0), trials)
        lam, ok = harness.batch_dfe_lambdas(profile.doppler_taps, profile.delay_taps, h0, 8, 8)
        phi = harness.batch_noise_enhancement(a0, (-2, -1))
        if offsets is None:  # the typical trial whose pivots leave the bracket furthest
            t = int(np.argmax(np.where(ok, (1.0 / lam).max(axis=1) / phi, 0.0)))
        oma, eps0 = PowerAllocation.oma(), 2.0**cfg.rate_u0 - 1.0
        rho = eps0 * phi[t] * (1.0 + s)
        while oma.sinr(rho, phi[t] * (1.0 + s)) < eps0:
            rho = np.nextafter(rho, np.inf)
        assert ok[t] and oma.sinr(rho, (1.0 / lam[t]).max()) < eps0
        fast, exact = self._both(monkeypatch, cfg, rho, trials)
        assert exact["u0_outage_stage2"][t] > 0.0
        for name, samples in exact.items():
            assert np.array_equal(fast[name], samples), name

    def test_most_trials_skip_the_pivots_at_20_db(self, monkeypatch):
        # the shipped FD-DFE config at its top SNR point: in this block 31
        # trials' brackets (0.8%) straddle ε₀
        cfg = parse_config_file(os.path.join(os.path.dirname(__file__), "..", "configs",
                                             "downlink_outage_dfe.cfg"))
        pivots, counts = harness.batch_dfe_lambdas, []

        def counted(doppler_taps, delay_taps, gains, n, m):
            counts.append(len(gains))
            return pivots(doppler_taps, delay_taps, gains, n, m)

        monkeypatch.setattr(harness, "batch_dfe_lambdas", counted)
        scenario_kernel(cfg, 100.0, substream(cfg.seed, 5, 0), 4096)
        assert 0 < sum(counts) < 0.1 * 4096


class TestWorkUnits:
    """run_scenario packs consecutive blocks into work units of at most
    BLOCK_TRIALS trials, across SNR points; each block keeps its substream,
    its ρ and its trials, and U0's undecided FD-DFE trials are gathered
    across the unit for the pivots."""

    # two blocks of a 0 dB point and two of a 20 dB point, 3337 trials
    UNIT = ((1.0, (0, 0), 300), (1.0, (0, 1), 37), (100.0, (1, 0), 2000), (100.0, (1, 1), 1000))

    @pytest.mark.parametrize("overrides", [
        dict(equalizer="le"),
        dict(equalizer="dfe"),
        dict(equalizer="dfe", u0_profile=ChannelProfile(paths=((1, 0), (1, 2), (1, 4), (5, 6)))),
        dict(direction="uplink", scheduler="per_subchannel", equalizer="dfe"),
        dict(direction="uplink", scheduler="greedy", rate_mode="adaptive", equalizer="dfe"),
    ], ids=["downlink-le", "downlink-dfe", "downlink-dfe-lattice", "uplink-fixed",
            "uplink-adaptive"])
    def test_packed_blocks_keep_their_bits(self, monkeypatch, overrides):
        # the unit's samples and sums of each block equal, bit for bit, those
        # of the block run alone on its substream.  Under FD-DFE every block
        # has trials that the bracket leaves undecided (the lattice profile
        # has e = 2, d = 4): the unit pivots them in one call, in block
        # order, with ρ per trial, where the blocks alone make four.
        cfg = small_config(**overrides)
        unit = [(rho, (cfg.seed, *key), trials) for rho, key, trials in self.UNIT]
        pivots, calls = harness.batch_dfe_lambdas, []

        def recorded(doppler_taps, delay_taps, gains, n, m):
            calls.append(gains.copy())
            return pivots(doppler_taps, delay_taps, gains, n, m)

        monkeypatch.setattr(harness, "batch_dfe_lambdas", recorded)
        packed = harness._unit_samples(cfg, [(rho, substream(*key), t) for rho, key, t in unit])
        packed_calls, calls[:] = calls[:], []
        alone = [scenario_kernel(cfg, rho, substream(*key), t) for rho, key, t in unit]
        alone_calls = len(calls)
        assert len(packed) == len(alone) == len(unit)
        for (_, _, trials), samples, reference in zip(unit, packed, alone):
            assert samples.keys() == reference.keys()
            for name, values in reference.items():
                assert samples[name].shape == (trials,)
                assert np.array_equal(samples[name], values), name
        assert harness._unit_sums(cfg, unit) == [harness._block_sums(a) for a in alone]
        if cfg.equalizer == "le":
            assert not packed_calls and not alone_calls
            return
        undecided = []
        for rho, key, trials in unit:
            h0, a0 = _u0_state(cfg, substream(*key), trials)
            undecided.append(h0[_bracket_undecided(cfg, rho, h0, a0)])
        assert all(len(u) > 0 for u in undecided)
        assert len(packed_calls) == 1 and alone_calls == len(unit)
        assert np.array_equal(packed_calls[0], np.concatenate(undecided))

    def test_gathered_pivot_calls_stay_within_one_sub_batch(self, monkeypatch):
        # The shipped FD-DFE config: at 128 trials a point, its six blocks
        # are one unit, whose undecided trials go to the pivots at most one
        # sub-batch's trials, 256, a call; a 4096-trial block at 20 dB, 16
        # sub-batches, makes one call, and one at 0 dB calls of 256.  The pivots' workspace, fresh in each
        # run's thread, grows to at most 256 trials' lattice cells.
        cfg = parse_config_file(os.path.join(CONFIG_DIR, "downlink_outage_dfe.cfg"))
        step = harness.SUB_BATCH_CELLS // (max(cfg.n, cfg.k_users) * cfg.m)
        _, e, d = coupling_lattice(cfg.u0_profile, cfg.n, cfg.m)
        assert step == 256 and e * d == 4
        pivots, calls = harness.batch_dfe_lambdas, []

        def recorded(doppler_taps, delay_taps, gains, n, m):
            out = pivots(doppler_taps, delay_taps, gains, n, m)
            calls.append((len(gains), equalizers._WORKSPACE.taps.size))
            return out

        def in_a_fresh_thread(fn, *args):
            calls.clear()
            with concurrent.futures.ThreadPoolExecutor(1) as pool:
                pool.submit(fn, *args).result()
            assert all(0 < size <= step and cells <= step * cfg.n * cfg.m // (e * d)
                       for size, cells in calls)
            return [size for size, _ in calls]

        monkeypatch.setattr(harness, "batch_dfe_lambdas", recorded)
        small = dataclasses.replace(cfg, trials=128)
        sizes = in_a_fresh_thread(run_scenario, small)
        undecided = 0
        for si, snr in enumerate(small.snr_db):
            h0, a0 = _u0_state(small, substream(small.seed, si, 0), small.trials)
            undecided += int(_bracket_undecided(small, 10.0 ** (snr / 10.0), h0, a0).sum())
        assert sum(sizes) == undecided
        assert len(sizes) == -(-undecided // step)
        sizes = in_a_fresh_thread(scenario_kernel, cfg, 100.0, substream(cfg.seed, 5, 0), 4096)
        assert len(sizes) == 1
        # at 0 dB most of a full block is undecided: full calls but the last
        sizes = in_a_fresh_thread(scenario_kernel, cfg, 1.0, substream(cfg.seed, 0, 0), 4096)
        assert sum(sizes) > 8 * step and sizes[:-1] == [step] * (len(sizes) - 1)

    @pytest.mark.parametrize("cfg, workers, units", [
        # test_worker_count_invariance
        (small_config(trials=300, snr_db=(0.0, 10.0)), 2, 2),
        (small_config(trials=100, snr_db=(0.0, 10.0)), 2, 2),
        # test_pool_has_no_more_workers_than_blocks
        (small_config(trials=300), 64, 2),
        (small_config(trials=300, snr_db=(0.0,)), 2, 1),
        # test_criterion_10_worker_determinism
        (small_config(n=16, m=16, k_users=16, trials=2000, snr_db=(0.0, 10.0), seed=1001), 4, 2),
        (small_config(n=16, m=16, k_users=16, trials=2000, snr_db=(0.0, 10.0), seed=1001), 8, 2),
        (small_config(n=16, m=16, k_users=16, trials=2000, snr_db=(0.0, 10.0), seed=1001), 1, 1),
        # the benchmark's pool check (16 trials × 6 points, 2 workers) and its reference
        (small_config(trials=16, snr_db=(0, 4, 8, 12, 16, 20)), 2, 2),
        (small_config(trials=16, snr_db=(0, 4, 8, 12, 16, 20)), 1, 1),
        # full blocks are units of one, and so is a block that fits with no neighbour
        (small_config(trials=8192, snr_db=(0, 4, 8)), 1, 6),
        (small_config(trials=4100, snr_db=(0, 4, 8)), 1, 6),
        (small_config(trials=2000, snr_db=(0, 4, 8)), 1, 2),
    ])
    def test_units_per_pool(self, cfg, workers, units):
        # A pool of W > 1 workers gets at least min(W, blocks) units, so these
        # runs start a real pool; one worker packs every run of blocks that
        # fits in BLOCK_TRIALS.  The units hold every block once, in task order.
        got = harness._work_units(cfg, workers)
        assert len(got) == units
        assert all(sum(t for *_, t in unit) <= harness.BLOCK_TRIALS for unit in got)
        blocks = [block for unit in got for block in unit]
        assert [key for _, key, _ in blocks] == [
            (cfg.seed, si, b) for si in range(len(cfg.snr_db))
            for b in range(-(-cfg.trials // harness.BLOCK_TRIALS))]
        assert [t for *_, t in blocks] == [min(harness.BLOCK_TRIALS, cfg.trials - lo)
                                           for _ in cfg.snr_db
                                           for lo in range(0, cfg.trials, harness.BLOCK_TRIALS)]


def test_nan_spectrum_puts_the_trial_in_outage(monkeypatch):
    # a NaN |D|² makes φ = inf: U0 is in outage in trial 3, and in trial 5
    # every static user fails stage I, so every scheduled user is in outage.
    # U0's spectrum is the one computed from (T, P) gains, on the reduced
    # profile of its coupling lattice, one (N/e, M/d) copy: all of the 8×8
    # grid, or (4, 2) where e = 2 and d = 4.  The static users' gains are
    # (T, K, P).
    spectrum = harness.power_spectrum
    for paths, copy in ((((2, 0), (6, 0), (5, 1), (7, 1)), (8, 8)),
                        (((1, 0), (1, 2), (1, 4), (5, 6)), (4, 2))):
        cfg = small_config(u0_profile=ChannelProfile(paths=paths))
        patched = []

        def with_nans(profile, gains, n, m, **out):
            power = spectrum(profile, gains, n, m, **out)
            if gains.ndim == 2:
                assert power.shape == (8,) + copy
                power[3, 1, 1] = np.nan
            else:
                power[5, :, 0, 4] = np.nan
            patched.append(gains.ndim)
            return power

        monkeypatch.setattr(harness, "power_spectrum", with_nans)
        samples = scenario_kernel(cfg, 1e6, substream(cfg.seed, 0), 8)
        assert sorted(patched) == [2, 3], paths
        assert samples["u0_outage"][3] == samples["u0_outage_oma"][3] == 1.0
        assert samples["noma_outage"][5] == 1.0
        assert samples["u0_outage"].mean() < 1.0 and samples["noma_outage"].mean() < 1.0


@pytest.mark.parametrize("direction, gain", [("downlink", 2.0), ("uplink", 1.0)])
def test_noma_sinr_at_its_threshold_is_no_outage(monkeypatch, direction, gain):
    # a NOMA user is in outage iff its SINR < ε, as U0 is.  At 0 dB (ρ = 1)
    # and rate 1 (ε = 1), one-path static users of gain 2 give the downlink
    # stage-II SNR ρ·γ₁²·|2|² = 1 exactly, and users of gain 1 with U0's
    # gains 0 give the uplink cell SINR ρ·1/(ρ·0 + 1) = 1 exactly
    cfg = small_config(direction=direction, n=16, m=16, k_users=16, scheduler="per_subchannel",
                       noma_profile=ChannelProfile(paths=((0, 0),)), rate_noma=1.0,
                       snr_db=(0.0,))
    draw_gains = harness.sample_gain_matrix

    def with_fixed_gains(profile, rng, count):
        gains = draw_gains(profile, rng, count)
        if profile == cfg.noma_profile:
            gains[:] = gain
        elif direction == "uplink":
            gains[:] = 0.0
        return gains

    monkeypatch.setattr(harness, "sample_gain_matrix", with_fixed_gains)
    samples = scenario_kernel(cfg, 10.0 ** (cfg.snr_db[0] / 10.0), substream(cfg.seed, 0), 16)
    assert np.all(samples["noma_outage"] == 0.0)


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


@pytest.mark.parametrize("equalizer, grid, trials, snr_db, bound_mib", [
    ("le", {}, 4096, 10.0, 24),
    ("dfe", {}, 4096, 10.0, 32),
    ("dfe", dict(n=64, m=64, k_users=64), 1536, 20.0, 16),
], ids=["le-24", "dfe-32", "dfe-64x64-16"])
def test_block_memory_is_bounded_by_the_sub_batch(equalizer, grid, trials, snr_db, bound_mib):
    # a 4096-trial block on 16×16 peaked at 68.3 MiB under either equalizer
    # when every (T, N, M) array was held for the whole block; with
    # sub-batches it peaks at 7.2 MiB (FD-LE) and 16.0 MiB (FD-DFE).  On
    # 64×64 with K = 64 the block holds its 16 B draws per gain value, 5 KiB
    # a trial, and nothing else per trial: stored as views, U0's first and
    # last flags pinned each sub-batch's (T, NM) flags, 2 B per trial-cell,
    # and this block peaked at 21.0 MiB against 9.1 MiB with copies.  The
    # bound leaves room for the pivots' workspace, 5.5 MiB, in case this
    # thread's is first reserved in the block.
    path = os.path.join(os.path.dirname(__file__), "..", "configs", "downlink_sum_rate_le.cfg")
    cfg = dataclasses.replace(parse_config_file(path), equalizer=equalizer, **grid)
    rho = 10.0 ** (snr_db / 10.0)
    scenario_kernel(cfg, rho, substream(1, 0), 8)  # fill the steering-factor cache
    tracemalloc.start()
    try:
        scenario_kernel(cfg, rho, substream(1, 0), trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


def test_concurrent_dfe_kernels_keep_their_samples():
    # each thread has its own pivot workspace: three FD-DFE kernels on
    # different grids, run at once at 0 dB, where most trials need their
    # pivots, with more threads than cores and a short switch interval,
    # return the samples of the same runs made one after the other
    cfgs = [small_config(equalizer="dfe", n=16, m=16, k_users=16),
            small_config(equalizer="dfe", n=32, m=8, k_users=8, seed=77),
            small_config(equalizer="dfe", n=4, m=8, k_users=8, seed=78)]

    def run(cfg):
        return scenario_kernel(cfg, 1.0, substream(cfg.seed, 0), 1024)

    alone = [run(cfg) for cfg in cfgs]
    start = threading.Barrier(len(cfgs), timeout=60)

    def together(cfg):
        start.wait()
        return [run(cfg) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(cfgs)) as pool:
            futures = [pool.submit(together, cfg) for cfg in cfgs]
            concurrent_runs = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for reference, runs in zip(alone, concurrent_runs):
        for samples in runs:
            assert samples.keys() == reference.keys()
            for name, values in reference.items():
                assert np.array_equal(samples[name], values), name


_FAULTS_PER_TRIAL = """
import dataclasses, resource, sys
sys.path.insert(0, sys.argv[1])
from otfsnoma.harness import parse_config_file, run_scenario
cfg = dataclasses.replace(parse_config_file(sys.argv[2]), trials=int(sys.argv[3]))
warmups, repeats = int(sys.argv[4]), int(sys.argv[5])
for _ in range(warmups):
    run_scenario(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(repeats):
    run_scenario(cfg)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults / (repeats * cfg.trials * len(cfg.snr_db)))
"""


def _faults_per_trial(config: str, trials: int, warmups: int, repeats: int) -> float:
    """Minor page faults per trial of ``repeats`` runs of a shipped config
    at ``trials`` trials a point, after ``warmups`` runs, in a fresh
    interpreter."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    path = os.path.join(os.path.dirname(__file__), "..", "configs", config)
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_TRIAL, src, path,
                          *map(str, (trials, warmups, repeats))],
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def test_dfe_runs_take_no_page_faults():
    # After warm-up, the shipped FD-DFE config at 128 trials per point, the
    # benchmark's size, reuses its memory instead of faulting it back in:
    # with the pivots' working memory freed after every call, a fresh
    # interpreter took 1.6 to 5 minor page faults per trial.
    assert _faults_per_trial("downlink_outage_dfe.cfg", 128, 3, 20) < 0.5


def test_dfe_full_blocks_take_no_page_faults():
    # After warm-up, the shipped FD-DFE config at 4096 trials per point, one
    # full block, reuses its memory: it took under 0.002 minor page faults
    # per trial.
    assert _faults_per_trial("downlink_outage_dfe.cfg", 4096, 1, 2) < 0.5


def test_uplink_blocks_take_no_page_faults():
    # After warm-up, the shipped fixed-rate uplink config at 4096 trials per
    # point, one block, reuses its memory: it took no minor page faults per
    # trial, where drawing the static users' gains per sub-batch instead of
    # per block took 2.1.
    assert _faults_per_trial("uplink_fixed_per_subchannel.cfg", 4096, 1, 3) < 0.5


_SETUP_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
lazy = "numpy.random" not in sys.modules
from otfsnoma.harness import parse_config_file
parse_config_file(sys.argv[2])
print("concurrent.futures" in sys.modules, lazy and "numpy.random" in sys.modules)
"""


def test_setup_imports_nothing_it_does_not_use():
    # Importing the package and parsing a config loads neither
    # concurrent.futures, which pulls in logging and is needed only when a
    # run starts a pool, nor numpy.random, needed only when a run draws.
    # The latter holds only where a bare `import numpy` leaves numpy.random
    # unloaded, as numpy 2 does; numpy 1.x loads it eagerly.
    src = os.path.dirname(os.path.dirname(harness.__file__))
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "uplink_fixed_per_subchannel.cfg")
    out = subprocess.run([sys.executable, "-c", _SETUP_IMPORTS, src, path],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]
