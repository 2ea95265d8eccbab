"""Tests of the benchmark itself, at tiny trial counts.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
from otfsnoma import harness
from otfsnoma.equalizers import batch_dfe_lambdas
from otfsnoma.grid_channel import sample_gain_matrix
from otfsnoma.rng import substream

TINY = {"downlink_le": 512, "downlink_dfe_pool": 16, "uplink": 512}


def _scenario(path, trials, seed=1):
    cfg = harness.parse_config_file(run.ROOT / path)
    return dataclasses.replace(cfg, trials=trials, seed=seed)


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    """{(config stem, seed): (cfg, CSV bytes)} for every config of every workload."""
    out = {}
    for name, workload in run.WORKLOADS.items():
        for path in workload.configs:
            for seed in (1, 2):
                cfg = _scenario(path, TINY[name], seed)
                csv_path = tmp_path_factory.mktemp("csv") / "curves.csv"
                harness.emit_csv(harness.run_scenario(cfg), csv_path)
                out[Path(path).stem, seed] = (cfg, csv_path.read_bytes())
    return out


def _corrupt(data: bytes, metric: str, si: int, cfg, edit) -> bytes:
    """Replace the value of one (metric, SNR) row by ``edit(value)``."""
    snr = f"{cfg.snr_db[si]:.12g}"
    lines = data.decode().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == snr and cells[1] == metric:
            cells[2] = f"{edit(float(cells[2])):.12g}"
            lines[i] = ",".join(cells)
            return ("\n".join(lines) + "\n").encode()
    raise KeyError((metric, si))


def _drop(data: bytes, metric: str, si: int, cfg) -> bytes:
    snr = f"{cfg.snr_db[si]:.12g}"
    lines = [line for line in data.decode().splitlines() if not line.startswith(f"{snr},{metric},")]
    return ("\n".join(lines) + "\n").encode()


def test_checks_pass_on_two_seeds(curves):
    for key, (cfg, data) in curves.items():
        assert checks.check_curves(cfg, data) == {}, key


# (config stem, metric, SNR index, edit, text expected in the rejection)
CORRUPTIONS = [
    ("downlink_sum_rate_le", "u0_outage", 3, lambda v: 1.5, "outside [0, 1.0]"),
    ("downlink_sum_rate_le", "outage_sum_rate_noma", 5, lambda v: v + 1e-6,
     "outage_sum_rate_noma="),
    ("downlink_sum_rate_le", "outage_sum_rate_oma", 5, lambda v: v - 1e-6, "outage_sum_rate_oma="),
    ("downlink_sum_rate_le", "u0_outage_oma", 3, lambda v: 1.0, "u0_outage < u0_outage_oma"),
    ("downlink_sum_rate_le", "noma_outage", 1, lambda v: 0.0, "below stage-II bound"),
    ("downlink_outage_dfe", "u0_outage_last", 5, lambda v: 1.0, "u0_outage_first < u0_outage_last"),
    ("downlink_outage_dfe", "u0_outage_oma_last", 5, lambda v: 1.0,
     "u0_outage_oma_first < u0_outage_oma_last"),
    ("downlink_outage_dfe", "u0_outage_last", 5, lambda v: 1.0 / 16, "vs Corollary 1"),
    ("downlink_outage_dfe", "u0_outage_oma_last", 1, lambda v: 0.5, "vs Corollary 1"),
    ("uplink_fixed_per_subchannel", "noma_outage", 6, lambda v: v + 0.1, "vs closed form"),
    ("uplink_fixed_per_subchannel", "u0_outage", 0, lambda v: 0.0, "u0_outage < u0_outage_stage2"),
    ("uplink_adaptive_gain", "ergodic_rate_gain", 4, lambda v: v + 0.5, "vs quadrature"),
]


@pytest.mark.parametrize("stem,metric,si,edit,text", CORRUPTIONS)
def test_each_check_rejects_one_corrupted_value(curves, stem, metric, si, edit, text):
    cfg, data = curves[stem, 1]
    failures = checks.check_curves(cfg, _corrupt(data, metric, si, cfg, edit))
    assert si in failures and any(text in m for m in failures[si]), failures


def test_shape_check_rejects_missing_row_and_wrong_trials(curves):
    cfg, data = curves["uplink_adaptive_gain", 1]
    assert "u0_outage missing" in checks.check_curves(cfg, _drop(data, "u0_outage", 2, cfg))[2]
    bad_trials = dataclasses.replace(cfg, trials=cfg.trials + 1)
    assert all(si in checks.check_curves(bad_trials, data) for si in range(len(cfg.snr_db)))


def test_pivot_check_rejects_one_corrupted_pivot():
    cfg = _scenario("configs/downlink_outage_dfe.cfg", 8)
    prof = cfg.u0_profile
    gains = sample_gain_matrix(prof, substream(1, 0, 0), 8)
    args = (prof.doppler_taps, prof.delay_taps, gains, cfg.n, cfg.m)
    lam, ok = batch_dfe_lambdas(*args)
    assert checks.pivot_mismatches(*args, lam, ok) == 0
    for col in (0, -1):
        bad = lam.copy()
        bad[3, col] *= 1.0 + 1e-7
        assert checks.pivot_mismatches(*args, bad, ok) == 1


def test_rerun_that_changes_one_point_fails_that_point(tmp_path):
    scenario = run.Scenario(harness, "configs/uplink_adaptive_gain.cfg", 64, 1, tmp_path / "t.csv")
    assert run.run_once(harness, scenario, 1)[1] == {}

    def shifted(cfg, workers=1):
        points = harness.run_scenario(cfg, workers)
        return [dataclasses.replace(p, value=p.value + 1e-9) if p.snr_db == cfg.snr_db[3] else p
                for p in points]

    fake = SimpleNamespace(run_scenario=shifted, emit_csv=harness.emit_csv)
    assert list(run.run_once(fake, scenario, 1)[1]) == [3]


def test_uplink_oracles_agree():
    """The closed-form CDF and the 2-D quadrature describe the same SINR."""
    import mpmath

    rho = 10.0
    ln2 = mpmath.log(2)
    mean = mpmath.quad(lambda s: (1 - checks.uplink_sinr_cdf(16, s, rho)) / ((1 + s) * ln2),
                       [0, 1, rho, 30 * rho, mpmath.inf])
    assert checks.uplink_rate_moments(16, rho)[0] == pytest.approx(float(mean), rel=1e-9)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setitem(run.WORKLOADS, workload,
                        dataclasses.replace(run.WORKLOADS[workload], trials=TINY[workload]))
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", workload, "--seed", "2", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = bench["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_command_fails_outside_a_checkout(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "uplink", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
