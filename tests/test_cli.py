import re

import pytest

from otfsnoma import corollary1_outage, error_floor, read_csv_points
from otfsnoma.cli import main
from otfsnoma.uplink import closed_form_outage

TINY_CONFIG = """
direction = downlink
n = 4
m = 4
k_users = 4
u0_profile = 0:0,1:1,2:3
noma_profile = 0:0,1:0
gamma0_sq = 0.75
rate_u0 = 0.5
rate_noma = 1.0
equalizer = le
scheduler = random
snr_db = 0,10
trials = 200
seed = 7
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestSimulate:
    def test_writes_parseable_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = main(["simulate", "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        points = read_csv_points(out)
        assert points
        assert {p.snr_db for p in points} == {0.0, 10.0}
        assert "wrote" in capsys.readouterr().out

    def test_seed_and_trials_overrides(self, config_file, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["simulate", "--config", str(config_file), "--out", str(a)])
        main(["simulate", "--config", str(config_file), "--out", str(b), "--seed", "8"])
        main(["simulate", "--config", str(config_file), "--out", str(c), "--trials", "400"])
        assert a.read_bytes() != b.read_bytes()
        assert read_csv_points(c)[0].trials_used == 400

    def test_threads_flag_bit_exact(self, config_file, tmp_path):
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        main(["simulate", "--config", str(config_file), "--out", str(a), "--threads", "1"])
        main(["simulate", "--config", str(config_file), "--out", str(b), "--threads", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_trials_names_field(self, config_file, tmp_path):
        with pytest.raises(SystemExit, match="invalid scenario config: trials: "):
            main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "x.csv"),
                  "--trials", "0"])

    @pytest.mark.parametrize("equalizer", ["le", "dfe"])
    @pytest.mark.parametrize("size, name", [
        ("n = 128\nm = 64\nk_users = 64", "n"),
        ("n = 99999999999999999999\nm = 4\nk_users = 4", "n"),
        (f"n = 4\nm = 4\nk_users = {10**20}", "k_users"),
    ], ids=["128x64", "huge-n", "huge-k_users"])
    def test_oversize_names_field(self, tmp_path, size, name, equalizer):
        path = tmp_path / "big.cfg"
        path.write_text(TINY_CONFIG.replace("n = 4\nm = 4\nk_users = 4", size)
                        .replace("equalizer = le", f"equalizer = {equalizer}"))
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(path), "--out", str(out)])
        message = str(exc.value.code)
        assert message.startswith(f"invalid scenario config: {name}: ") and "\n" not in message
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_rejected(self, config_file, tmp_path, threads):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit, match="threads: must be >= 1"):
            main(["simulate", "--config", str(config_file), "--out", str(out),
                  "--threads", threads])
        assert not out.exists()


class TestAnalytic:
    def test_corollary1(self, capsys):
        rc = main(["analytic", "--formula", "corollary1", "--params",
                   "p0=3", "rho_db=10", "gamma0_sq=0.75", "gamma1_sq=0.25", "r0=0.5"])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(corollary1_outage(3, 10.0, 0.75, 0.25, 0.5), rel=1e-9)

    def test_closedform(self, capsys):
        main(["analytic", "--formula", "closedform", "--params",
              "k=16", "epsilon=1", "rho_db=40"])
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(closed_form_outage(16, 1.0, 1e4), rel=1e-9)

    def test_floor(self, capsys):
        main(["analytic", "--formula", "floor", "--params", "k=2", "epsilon=0.01"])
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(error_floor(2, 0.01), rel=1e-9)

    def test_missing_params_exit(self):
        with pytest.raises(SystemExit):
            main(["analytic", "--formula", "floor", "--params", "k=2"])

    def test_malformed_params_exit(self):
        with pytest.raises(SystemExit):
            main(["analytic", "--formula", "floor", "--params", "k:2", "epsilon=1"])


class TestSlope:
    def test_synthetic_slope(self, tmp_path, capsys):
        from otfsnoma import CurvePoint, emit_csv

        pts = [CurvePoint(snr_db=db, metric="u0_outage", value=0.5 / 10 ** (db / 10),
                          ci_halfwidth=0.0, trials_used=10**9)
               for db in (10, 15, 20, 25)]
        path = tmp_path / "curve.csv"
        emit_csv(pts, path)
        rc = main(["slope", "--in", str(path), "--metric", "u0_outage"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(-1.0, abs=1e-5)

    def test_missing_metric_exits(self, tmp_path):
        from otfsnoma import emit_csv

        path = tmp_path / "curve.csv"
        emit_csv([], path)
        with pytest.raises(SystemExit):
            main(["slope", "--in", str(path), "--metric", "nope"])


@pytest.mark.parametrize("argv, name", [
    (["analytic", "--formula", "floor", "--params", "k=abc", "epsilon=1"], "k"),
    (["analytic", "--formula", "floor", "--params", "k=16.7", "epsilon=1"], "k"),
    (["analytic", "--formula", "corollary1", "--params", "p0=2.9", "rho_db=10",
      "gamma0_sq=0.75", "gamma1_sq=0.25", "r0=0.5"], "p0"),
    (["analytic", "--formula", "corollary1", "--params", "p0=3", "rho_db=10",
      "gamma0_sq=0.75", "gamma1_sq=0.25", "r0=2000"], "r0"),
    (["analytic", "--formula", "floor", "--params", "k=0", "epsilon=1"], "k"),
    (["analytic", "--formula", "floor", "--params", "k=1e300", "epsilon=1"], "k"),
    (["analytic", "--formula", "corollary1", "--params", "p0=1e18", "rho_db=10",
      "gamma0_sq=0.75", "gamma1_sq=0.25", "r0=0.5"], "p0"),
    (["slope", "--in", "{tmp}/missing.csv", "--metric", "u0_outage"], "in"),
    (["simulate", "--config", "{tmp}/missing.cfg", "--out", "{tmp}/x.csv"], "config"),
    (["simulate", "--config", "{cfg}", "--out", "{tmp}/missing/x.csv"], "out"),
    (["analytic", "--formula", "corollary1", "--params", "p0=3", "rho_db=10",
      "gamma0_sq=2", "gamma1_sq=-1", "r0=0.5"], "gamma0_sq"),
    (["slope", "--in", "{tmp}/empty.csv", "--metric", "u0_outage"], "in"),
    (["slope", "--in", "{tmp}/trials0.csv", "--metric", "u0_outage"], "in"),
    (["slope", "--in", "{tmp}/trials-3.csv", "--metric", "u0_outage"], "in"),
    (["simulate", "--config", "{tmp}/gamma0_sq.cfg", "--out", "{tmp}/x.csv"], "gamma0_sq"),
    (["analytic", "--formula", "closedform", "--params", "k=16", "k=4", "epsilon=1",
      "rho_db=40"], "k"),
    (["analytic", "--formula", "floor", "--params", "k=4", "epsilon=1", "p0=3"], "p0"),
    (["analytic", "--formula", "corollary1", "--params", "p0=3", "rho_db=4000",
      "gamma0_sq=0.75", "gamma1_sq=0.25", "r0=0.5"], "rho_db"),
    (["analytic", "--formula", "closedform", "--params", "k=16", "epsilon=1",
      "rho_db=-4000"], "rho_db"),
    (["slope", "--in", "{tmp}/one_snr.csv", "--metric", "u0_outage"], "snr_db"),
    (["slope", "--in", "{tmp}/nonfinite_snr.csv", "--metric", "u0_outage"], "in"),
    (["simulate", "--config", "{tmp}/not_utf8.cfg", "--out", "{tmp}/x.csv"], "config"),
])
def test_bad_input_exits_with_one_line_naming_it(argv, name, config_file, tmp_path):
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "not_utf8.cfg").write_bytes(TINY_CONFIG.encode() + b"# \xff\n")
    (tmp_path / "gamma0_sq.cfg").write_text(TINY_CONFIG.replace("gamma0_sq = 0.75",
                                                                "gamma0_sq = 1e-17"))
    for trials in (0, -3):  # a point needs at least one trial
        rows = "".join(f"{db},u0_outage,{0.5 / 10**db},0,{trials}\n" for db in (1, 2, 3))
        (tmp_path / f"trials{trials}.csv").write_text("snr_db,metric,value,ci_halfwidth,trials\n"
                                                      + rows)
    for stem, snrs in (("one_snr", (0, 0, 0)), ("nonfinite_snr", (10, "inf", "nan"))):
        rows = "".join(f"{db},u0_outage,0.01,0,10000\n" for db in snrs)
        (tmp_path / f"{stem}.csv").write_text("snr_db,metric,value,ci_halfwidth,trials\n" + rows)
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path, cfg=config_file) for a in argv])
    message = str(exc.value.code)
    assert "\n" not in message and re.search(rf"\b{name}\b", message), message


def test_shipped_configs_parse(tmp_path):
    """Every config in configs/ parses and runs, and its CSV parses."""
    import glob
    import os

    from otfsnoma import parse_config_file

    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(here, "*.cfg")))
    assert len(paths) >= 4
    for p in paths:
        cfg = parse_config_file(p)
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", p, "--out", str(out), "--trials", "16"]) == 0
        assert {q.snr_db for q in read_csv_points(out)} == set(cfg.snr_db)


def test_readme_figures_match_configs():
    """The README's figure table names every config in configs/, and every
    configs/ path the README names exists."""
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    figures = readme.split("\n## Figures\n", 1)[1].split("\n## ", 1)[0]
    table = "\n".join(line for line in figures.splitlines() if line.startswith("|"))
    shipped = {os.path.basename(p) for p in glob.glob(os.path.join(root, "configs", "*.cfg"))}
    assert shipped <= set(re.findall(r"configs/([\w.-]+\.cfg)", table))
    for path in set(re.findall(r"configs/[\w.-]*\w", readme)):
        assert os.path.exists(os.path.join(root, path)), path
