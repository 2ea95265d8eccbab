"""Command-line entry point: simulate scenarios, evaluate analytic formulas,
and estimate diversity slopes from result files."""

import argparse
import math
import sys
from dataclasses import replace

from .harness import (
    MAX_SNR_DB,
    ConfigError,
    EstimatorUndefinedError,
    corollary1_outage,
    diversity_slope,
    emit_csv,
    parse_config_file,
    read_csv_points,
    run_scenario,
)
from .uplink import closed_form_outage, error_floor


# Each formula's parameters, in the order its function takes them.
_FORMULA_PARAMS = {
    "corollary1": ("p0", "rho_db", "gamma0_sq", "gamma1_sq", "r0"),
    "closedform": ("k", "epsilon", "rho_db"),
    "floor": ("k", "epsilon"),
}


def _parse_params(pairs, formula):
    """The formula's parameters from ``key=value`` pairs, each given once."""
    names = _FORMULA_PARAMS[formula]
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"analytic parameters must be key=value, got {pair!r}")
        if key not in names:
            raise SystemExit(f"invalid analytic parameter: {key}: not a parameter of {formula} "
                             f"({', '.join(names)})")
        if key in out:
            raise SystemExit(f"invalid analytic parameter: {key}: given more than once")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = math.nan
        if not math.isfinite(out[key]):
            raise SystemExit(f"invalid analytic parameter: {key}: must be a finite number, "
                             f"got {value!r}")
        if key == "rho_db" and abs(out[key]) > MAX_SNR_DB:
            raise SystemExit(f"invalid analytic parameter: {key}: must be within "
                             f"±{MAX_SNR_DB:g} dB, got {value!r}")
    missing = [n for n in names if n not in out]
    if missing:
        raise SystemExit(f"missing analytic parameters: {', '.join(missing)}")
    return [out[n] for n in names]


# The input range of the user count K and of P₀; the closed forms cost O(K).
_MAX_COUNT = 1024


def _count(name, value, low):
    """An integer-valued parameter; 16.7 users is an error, not 16."""
    if not value.is_integer() or not low <= value <= _MAX_COUNT:
        raise SystemExit(f"invalid analytic parameter: {name}: must be an integer in "
                         f"[{low}, {_MAX_COUNT}], got {value:g}")
    return int(value)


def _cmd_simulate(args) -> int:
    if args.threads < 1:
        raise SystemExit(f"invalid option: threads: must be >= 1, got {args.threads}")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    try:
        cfg = replace(parse_config_file(args.config), **overrides)
    except ConfigError as exc:
        raise SystemExit(f"invalid scenario config: {exc}") from exc
    except OSError as exc:
        raise SystemExit(f"invalid option: config: {exc}") from exc
    points = run_scenario(cfg, workers=args.threads)
    try:
        emit_csv(points, args.out)
    except OSError as exc:
        raise SystemExit(f"invalid option: out: {exc}") from exc
    print(f"wrote {len(points)} points to {args.out}")
    return 0


def _cmd_analytic(args) -> int:
    params = _parse_params(args.params, args.formula)
    try:
        if args.formula == "corollary1":
            p0, rho_db, g0, g1, r0 = params
            value = corollary1_outage(_count("p0", p0, 0), 10.0 ** (rho_db / 10.0),
                                      g0, g1, r0)
        elif args.formula == "closedform":
            k, eps, rho_db = params
            value = closed_form_outage(_count("k", k, 1), eps, 10.0 ** (rho_db / 10.0))
        else:
            k, eps = params
            value = error_floor(_count("k", k, 1), eps)
    except ValueError as exc:
        raise SystemExit(f"invalid analytic parameters: {exc}") from exc
    print(f"{value:.12g}")
    return 0


def _cmd_slope(args) -> int:
    try:
        points = read_csv_points(args.infile)
    except (OSError, ValueError, IndexError) as exc:
        raise SystemExit(f"invalid option: in: {exc}") from exc
    selected = [p for p in points if p.metric == args.metric]
    if not selected:
        raise SystemExit(f"metric {args.metric!r} not present in {args.infile}")
    try:
        slope = diversity_slope(selected)
    except EstimatorUndefinedError as exc:
        raise SystemExit(f"slope estimator undefined: {exc}") from exc
    print(f"{slope:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="otfsnoma",
                                     description="OTFS-NOMA link-level simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario config and write CSV curves")
    sim.add_argument("--config", required=True, help="scenario config file")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--trials", type=int, default=None, help="override trials per SNR")
    sim.add_argument("--threads", type=int, default=1, help="parallel workers")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analytic", help="evaluate a closed-form outage expression")
    ana.add_argument("--formula", required=True, choices=tuple(_FORMULA_PARAMS))
    ana.add_argument("--params", nargs="+", default=[], metavar="KEY=VALUE",
                     help="formula parameters, e.g. k=16 epsilon=1 rho_db=40")
    ana.set_defaults(func=_cmd_analytic)

    slo = sub.add_parser("slope", help="diversity slope of one metric in a CSV file")
    slo.add_argument("--in", dest="infile", required=True, help="input CSV path")
    slo.add_argument("--metric", required=True, help="metric name to fit")
    slo.set_defaults(func=_cmd_slope)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
