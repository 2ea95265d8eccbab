import glob
import os
import subprocess
import sys

import pytest

from otfsnoma import read_csv_points

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# Each figure script and the option that names its output.
OUT_OPTIONS = {
    "downlink_outage_curves.py": ("--out", "downlink_outage_dfe.csv"),
    "downlink_sum_rates.py": ("--out-prefix", "downlink_sum_rate"),
    "scheduling_gain.py": ("--out-prefix", "scheduling_sum_rate"),
    "uplink_ergodic_gain.py": ("--out-prefix", "uplink_ergodic_gain"),
    "uplink_fixed_rate.py": ("--out-prefix", "uplink_fixed_rate"),
}


def test_every_script_is_listed():
    scripts = glob.glob(os.path.join(ROOT, "scripts", "*.py"))
    assert sorted(os.path.basename(s) for s in scripts) == sorted(OUT_OPTIONS)


@pytest.mark.parametrize("name", sorted(OUT_OPTIONS))
def test_script_writes_parseable_csvs(name, tmp_path):
    """Each figure script runs end to end on the package's public API."""
    option, target = OUT_OPTIONS[name]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name),
                           "--trials", "64", "--workers", "1", option, str(tmp_path / target)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = glob.glob(str(tmp_path / "*.csv"))
    assert written
    for path in written:
        assert read_csv_points(path)
