#!/usr/bin/env python3
"""Downlink outage sum rates: OMA baseline vs NOMA, FD-LE and FD-DFE.

Writes one CSV per equalizer with outage_sum_rate_{oma,noma} curves; the
NOMA curve should approach R0 + Ri at high SNR while OMA caps at R0.
"""

import argparse

from otfsnoma import ScenarioConfig, emit_csv, run_scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rate-u0", type=float, default=0.5)
    ap.add_argument("--rate-noma", type=float, default=1.0)
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out-prefix", default="downlink_sum_rate")
    args = ap.parse_args()

    for equalizer in ("le", "dfe"):
        cfg = ScenarioConfig(
            direction="downlink", n=16, m=16, k_users=16, gamma0_sq=0.75,
            rate_u0=args.rate_u0, rate_noma=args.rate_noma, equalizer=equalizer,
            scheduler="random", snr_db=tuple(range(0, 51, 5)),
            trials=args.trials, seed=args.seed)
        points = run_scenario(cfg, workers=args.workers)
        path = f"{args.out_prefix}_{equalizer}.csv"
        emit_csv(points, path)
        top = {p.metric: p.value for p in points if p.snr_db == 50.0}
        print(f"{equalizer}: wrote {path}; at 50 dB "
              f"NOMA={top['outage_sum_rate_noma']:.4f} "
              f"OMA={top['outage_sum_rate_oma']:.4f} BPCU")


if __name__ == "__main__":
    main()
