"""Monte Carlo throughput benchmark for ``otfsnoma``.

Run from the repository root:

    python3 bench/run.py --workload downlink_le --seed 1 --seconds 20 --trace 0

Each workload runs shipped scenario configs at a fixed, reduced trial count
with the seed given on the command line, through the package's public entry
points (``parse_config_file``, ``run_scenario``, ``emit_csv``).  One
operation is one SNR point of one scenario; it fails when ``run_scenario``
raises or a check in ``checks.py`` rejects that point.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced one-process replay with ``--trace 1``.
"""

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
from tracing import Tracer  # noqa: E402


@dataclasses.dataclass(frozen=True)
class Workload:
    configs: tuple
    trials: int  # per SNR point, replacing the config's count


# Timed runs use one worker.  Two pool workers on FD-DFE each start
# multithreaded OpenBLAS and ran 10x to 50x slower than one worker, varying
# 5x between identical runs, so the pool is only checked for identical
# output (at POOL_CHECK_TRIALS per point), not timed.
WORKLOADS = {
    "downlink_le": Workload(("configs/downlink_sum_rate_le.cfg",), trials=8192),
    "downlink_dfe_pool": Workload(("configs/downlink_outage_dfe.cfg",), trials=128),
    "uplink": Workload(("configs/uplink_fixed_per_subchannel.cfg",
                        "configs/uplink_adaptive_gain.cfg"), trials=4096),
}
SETUP_REPEATS = 9
TRACED_REPEATS = 3
POOL_CHECK_TRIALS = 16
POOL_CHECK_WORKERS = 2

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from otfsnoma.harness import parse_config_file; "
    "[parse_config_file(p) for p in sys.argv[2:]]; print('ready', flush=True)"
)

LAYER_FUNCS = (
    "rng.substream",
    "grid_channel.sample_gain_matrix",
    "transforms.spectrum_from_taps",
    "transforms.static_spectrum_from_taps",
    "transforms.dense_block_circulant",
    "equalizers.gram_taps_from_gains",
    "equalizers.static_gram_taps",
    "equalizers.batch_dfe_lambdas",
    "equalizers.batch_static_lambdas",
    "scheduling.batch_schedule",
)


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, label: str, points: int, failures: dict):
        self.attempted += points
        self.failed += len(failures)
        for si, reasons in sorted(failures.items()):
            self.messages.append(f"{label} point {si}: {'; '.join(reasons)}")


class Scenario:
    """One config of a workload, its CSV path and its first round's output."""

    def __init__(self, harness, path: str, trials: int, seed: int, csv_path: Path):
        self.path = str(ROOT / path)
        self.cfg = dataclasses.replace(harness.parse_config_file(self.path),
                                       trials=trials, seed=seed)
        self.csv_path = csv_path
        self.label = Path(path).stem
        self.reference = None  # CSV lines per SNR of the first round
        self.reference_failures: dict = {}

    @property
    def points(self) -> int:
        return len(self.cfg.snr_db)

    @property
    def round_trials(self) -> int:
        return self.points * self.cfg.trials


def run_once(harness, scenario: Scenario, workers: int):
    """Run one scenario and write its CSV; (wall time of ``run_scenario``,
    {snr_index: [reasons]} for the points that failed).

    The first call checks the curves; later calls must reproduce its bytes
    point by point.
    """
    start = time.perf_counter()
    try:
        points = harness.run_scenario(scenario.cfg, workers=workers)
    except Exception as exc:  # a raising run fails all of its points
        return time.perf_counter() - start, {si: [repr(exc)] for si in range(scenario.points)}
    wall = time.perf_counter() - start
    harness.emit_csv(points, scenario.csv_path)
    data = scenario.csv_path.read_bytes()
    if scenario.reference is None:
        scenario.reference = checks.rows_by_snr(data)
        scenario.reference_failures = checks.check_curves(scenario.cfg, data)
        return wall, scenario.reference_failures
    rows = checks.rows_by_snr(data)
    failures = {si: list(reasons) for si, reasons in scenario.reference_failures.items()}
    for si, snr in enumerate(scenario.cfg.snr_db):
        if rows.get(snr) != scenario.reference.get(snr):
            failures.setdefault(si, []).append("CSV rows differ from the first round")
    return wall, failures


def run_round(harness, scenarios, workers: int, ledger: Ledger, label: str) -> float:
    """Run every scenario once; the summed wall time of ``run_scenario``."""
    total = 0.0
    for s in scenarios:
        wall, failures = run_once(harness, s, workers)
        ledger.record(f"{label} {s.label}", s.points, failures)
        total += wall
    return total


def measure_setup(paths) -> float:
    """Median wall time from starting a fresh interpreter to a parsed config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC), *paths],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process exited with {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_rounds(harness, scenarios, seconds: float, ledger: Ledger):
    """Repeat whole rounds (every scenario once) for ``seconds``; round walls."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(run_round(harness, scenarios, 1, ledger, "timed"))
    return walls


def check_pool(harness, scenarios, ledger: Ledger) -> float:
    """Run every scenario at POOL_CHECK_TRIALS per point with one worker and
    with the pool, which must write the same CSV bytes; the pool's speed-up."""
    small = [Scenario(harness, s.path, POOL_CHECK_TRIALS, s.cfg.seed,
                      s.csv_path.with_name(f"pool-{s.csv_path.name}")) for s in scenarios]
    one = run_round(harness, small, 1, ledger, "pool reference")
    return one / run_round(harness, small, POOL_CHECK_WORKERS, ledger, "pool")


def traced_metrics(harness, scenarios, timed_walls, ledger: Ledger, span_path) -> dict:
    """Replay the timed rounds with every layer traced; per-layer metrics."""
    mismatches = [0]
    dense_bytes = [0]

    def check_pivots(args, kwargs, result):
        lam, ok = result
        mismatches[0] += checks.pivot_mismatches(*args[:5], lam, ok)

    def count_bytes(args, kwargs, result):
        dense_bytes[0] += result.nbytes

    tracer = Tracer(after={"equalizers.batch_dfe_lambdas": check_pivots,
                           "transforms.dense_block_circulant": count_bytes})
    traced = []
    tracer.install()
    try:
        for _ in range(TRACED_REPEATS):
            total = 0.0
            for s in scenarios:
                harness.parse_config_file(s.path)  # traced for its per-call time
                before = mismatches[0]
                wall, failures = run_once(harness, s, 1)
                if mismatches[0] != before:  # the pivots cannot be traced to one SNR
                    for si in range(s.points):
                        failures.setdefault(si, []).append(
                            f"{mismatches[0] - before} FD-DFE pivots differ from 1/phi or sum|h|^2")
                ledger.record(f"traced {s.label}", s.points, failures)
                total += wall
            traced.append(total)
    finally:
        tracer.restore()
    tracer.write(span_path)

    trials = TRACED_REPEATS * sum(s.round_trials for s in scenarios)
    self_times = tracer.self_times()

    def per_trial_us(name):
        return 1e6 * sum(self_times.get(name, ())) / trials

    def per_call_ms(name):
        return 1e3 * statistics.mean(self_times[name])

    metrics = {f"{name}.us_per_trial": (per_trial_us(name), "us") for name in LAYER_FUNCS}
    metrics["transforms.dense_block_circulant.bytes_per_trial"] = (dense_bytes[0] / trials, "B")
    metrics["harness.run_scenario.self_us_per_trial"] = (per_trial_us("harness.run_scenario"), "us")
    metrics["harness.parse_config_file.ms"] = (per_call_ms("harness.parse_config_file"), "ms")
    metrics["harness.emit_csv.ms"] = (per_call_ms("harness.emit_csv"), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (min(traced) / min(timed_walls) - 1.0), "%")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    paths = [ROOT / p for p in workload.configs]
    missing = [str(p) for p in [SRC / "otfsnoma" / "__init__.py", *paths] if not p.is_file()]
    if missing:
        print(f"bench: run from a checkout of the repository; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup(paths)  # before this process imports
    sys.path.insert(0, str(SRC))
    from otfsnoma import harness
    if Path(harness.__file__).resolve().parent != (SRC / "otfsnoma").resolve():
        print(f"bench: imported {harness.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    name = args.workload
    scenarios = [Scenario(harness, p, workload.trials, args.seed,
                          RESULTS / f"{name}-seed{args.seed}-{i}.csv")
                 for i, p in enumerate(workload.configs)]
    ledger = Ledger()
    run_round(harness, scenarios, 1, ledger, "warm-up")  # checked, not timed
    walls = timed_rounds(harness, scenarios, args.seconds, ledger)
    round_trials = sum(s.round_trials for s in scenarios)

    if args.trace:
        span_path = RESULTS / f"{name}-seed{args.seed}-spans.json"
        metrics = traced_metrics(harness, scenarios, walls, ledger, span_path)
        metrics["harness.pool.speedup"] = (check_pool(harness, scenarios, ledger), "ratio")
    else:
        metrics = {
            "trials_per_s": (round_trials / min(walls), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{name}: seed {args.seed}, {len(walls)} timed rounds of {round_trials} trials, "
          f"{ledger.attempted} points attempted, {ledger.failed} failed")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
