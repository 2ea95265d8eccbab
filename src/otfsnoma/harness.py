"""Monte Carlo experiment engine, analytic oracles, and CSV serialization.

Every estimate comes from one block driver: trials run in fixed-size
blocks, each drawing from a substream keyed by the caller's key and the
block index, each reduced to partial sums of its own trials, and the
blocks' sums are merged in block order, so a run is bit-reproducible
regardless of the worker count.  Scenarios key their blocks by
(seed, snr_index, block_index) and run them in work units, runs of
consecutive small blocks that share their FD-DFE pivot calls; the tests'
standalone estimators (``tests/oracles.py``) run per-block kernels
``(cfg, rho, rng, trials) -> {metric: per-trial samples}`` through the same
block tasks and accumulator, keyed by (seed, block_index).
Every metric carries a 95% normal-approximation confidence halfwidth
computed from the per-trial spread.
"""

import csv
import itertools
import math
import operator
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .equalizers import (SINGULARITY_EPS, PowerAllocation, batch_dfe_lambdas,
                         batch_noise_enhancement)
# Unused here: bound so that the benchmark's tracer (bench/tracing.py), which
# wraps names where callers look them up, still finds them in this module.
from .equalizers import batch_static_lambdas  # noqa: F401
from .grid_channel import ChannelProfile, sample_gain_matrix, table1_profile
from .rng import substream
from .scheduling import batch_schedule, schedule_draws
from .transforms import coupling_lattice, power_spectrum
from .transforms import spectrum_from_taps, static_spectrum_from_taps  # noqa: F401

BLOCK_TRIALS = 4096  # fixed work-unit size; part of the determinism contract
MAX_SNR_DB = 3000.0  # bound on every |SNR|, of configs and formulas: ρ is a finite normal float

# Trials × grid cells per sub-batch.  The kernel works through a block's
# trials in sub-batches of this size, so its working memory does not grow
# with the block: 256 trials a sub-batch at 16×16.  The FD-DFE pivots take
# the undecided trials of a whole work unit in calls of at most one
# sub-batch's trials, which they work through in one pass on a per-thread
# workspace, sized by their lattice cells (a quarter of the trial-cells
# under Table 1), that grows to the largest call so far and is kept across
# calls and units instead of being returned to the system and faulted in
# again.
SUB_BATCH_CELLS = 1 << 16

# The size rule of every scenario: n·m and k_users·m, a trial's U0 and
# static-user arrays, are each at most this many cells.  So the bracket's
# rounding bound below holds on every grid a config can have; a sub-batch
# holds at least SUB_BATCH_CELLS // MAX_TRIAL_CELLS = 16 trials; and the
# FD-DFE workspace, at most 88 B per trial-cell of a sub-batch, stays
# within 5.5 MiB, the bound reached where d = e = 1 (equalizers).
MAX_TRIAL_CELLS = 4096

# U0's FD-DFE outage flags are decided from the bracket [1/φ, Σ|h_p|²] of
# its pivots (u0_outage_counts) with the relative slack BRACKET_SLACK on both
# ends, and only where φ·Σ|h_p|², which tracks the Gram matrix's condition
# number and is at least 1 exactly, lies in [1 − BRACKET_SLACK,
# BRACKET_MAX_COND].  There the computed pivots stay within the slack on
# every grid that MAX_TRIAL_CELLS admits: tests/test_equalizers.py's
# test_pivots_lie_in_the_bracket_at_the_domain_corners checks them on the
# 1×4096, 4096×1 and 64×64 grids, near-null draws at 0.9·BRACKET_MAX_COND
# included, where they leave the bracket by at most 4.5e-8 relative.  Every
# other trial gets its exact pivots.
BRACKET_SLACK = 2.0**-16
BRACKET_MAX_COND = 2.0**16

DIRECTIONS = ("downlink", "uplink")
EQUALIZERS = ("le", "dfe")
SCHEDULERS = ("random", "greedy", "per_subchannel")
RATE_MODES = ("fixed", "adaptive")


class ConfigError(ValueError):
    """A scenario configuration field failed validation."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class EstimatorUndefinedError(ValueError):
    """Too few reliable points for the requested estimator."""


@dataclass(frozen=True)
class McEstimate:
    """One Monte Carlo estimate with its normal-approximation uncertainty."""

    value: float
    std_error: float
    trials: int

    @property
    def ci_halfwidth(self) -> float:
        return 1.96 * self.std_error


def default_noma_profile() -> ChannelProfile:
    """Four equal-spaced delay taps, Doppler-free (low-mobility users)."""
    return ChannelProfile(paths=((0, 0), (1, 0), (2, 0), (3, 0)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one experiment (one curve family)."""

    direction: str
    n: int
    m: int
    k_users: int
    gamma0_sq: float
    rate_u0: float
    rate_noma: float
    equalizer: str
    snr_db: tuple
    trials: int
    seed: int
    scheduler: str = "random"
    rate_mode: str = "fixed"
    u0_profile: ChannelProfile = field(default_factory=table1_profile)
    noma_profile: ChannelProfile = field(default_factory=default_noma_profile)

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        self.validate()

    def validate(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError("direction", f"must be one of {DIRECTIONS}")
        for key in ("n", "m", "k_users", "trials", "seed"):
            try:
                operator.index(getattr(self, key))
            except TypeError:
                raise ConfigError(key, "must be an integer") from None
        for key in ("n", "m"):
            if getattr(self, key) < 1:
                raise ConfigError(key, "grid dimensions must be >= 1")
        if self.k_users < 1:
            raise ConfigError("k_users", "must be >= 1")
        for key, rows in (("n", self.n), ("k_users", self.k_users)):
            if (cells := int(rows) * int(self.m)) > MAX_TRIAL_CELLS:  # numpy ints would wrap
                raise ConfigError(key, f"{key}*m = {cells} exceeds {MAX_TRIAL_CELLS}")
        if self.scheduler not in SCHEDULERS:
            raise ConfigError("scheduler", f"must be one of {SCHEDULERS}")
        if self.scheduler == "random" and self.k_users < self.m:
            raise ConfigError("k_users", "random scheduling needs k_users >= m")
        try:
            PowerAllocation.split(self.gamma0_sq)  # the split the downlink runs on
        except ValueError as exc:
            raise ConfigError("gamma0_sq", f"not a valid power split: {exc}") from exc
        for key in ("rate_u0", "rate_noma"):
            if not 0.0 < getattr(self, key) < 1024.0:  # so 2^R − 1 is a finite float
                raise ConfigError(key, "target rates must be in (0, 1024) bits per use")
        if self.equalizer not in EQUALIZERS:
            raise ConfigError("equalizer", f"must be one of {EQUALIZERS}")
        if self.rate_mode not in RATE_MODES:
            raise ConfigError("rate_mode", f"must be one of {RATE_MODES}")
        if self.direction == "downlink" and self.rate_mode != "fixed":
            raise ConfigError("rate_mode", "the downlink has fixed rates only")
        if not self.snr_db:
            raise ConfigError("snr_db", "SNR grid must be nonempty")
        if not all(abs(s) <= MAX_SNR_DB for s in self.snr_db):
            raise ConfigError("snr_db", f"SNR values must be finite, within ±{MAX_SNR_DB:g} dB")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ConfigError("snr_db", "SNR grid must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if not 0 <= self.seed < 2**64:  # substreams key by the seed's low 64 bits
            raise ConfigError("seed", "must be in [0, 2^64)")
        for key in ("u0_profile", "noma_profile"):
            try:
                getattr(self, key).check_fits(self.n, self.m)
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from exc
        if not self.noma_profile.is_static():
            raise ConfigError("noma_profile", "NOMA users must be Doppler-free")


@dataclass(frozen=True)
class CurvePoint:
    """One (SNR, metric) sample of a curve with its uncertainty."""

    snr_db: float
    metric: str
    value: float
    ci_halfwidth: float
    trials_used: int

    def __post_init__(self):
        if self.ci_halfwidth < 0:
            raise ValueError("ci_halfwidth must be non-negative")
        if self.trials_used < 1:
            raise ValueError("trials_used must be >= 1")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


# ---------------------------------------------------------------------------
#  Config file parsing (flat key = value text)
# ---------------------------------------------------------------------------

def _parse_profile(text: str) -> ChannelProfile:
    pairs = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        delay, _, doppler = piece.partition(":")
        pairs.append((int(delay), int(doppler)))
    return ChannelProfile(paths=tuple(pairs))


_PARSERS = {
    int: int,
    float: float,
    str: str,
    tuple: lambda text: tuple(float(s) for s in text.split(",") if s.strip()),
    ChannelProfile: _parse_profile,
}


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse the flat key = value scenario format.  The keys are the fields of
    :class:`ScenarioConfig`; a field without a default is required, and
    unknown or duplicate keys are errors."""
    known = {f.name for f in fields(ScenarioConfig)}
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(key, "unknown configuration key")
        if key in raw:
            raise ConfigError(key, "duplicate configuration key")
        raw[key] = value
    kwargs = {}
    for f in fields(ScenarioConfig):
        if f.name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f.name, "required key is missing")
            continue
        try:
            kwargs[f.name] = _PARSERS[f.type](raw[f.name])
        except ValueError as exc:
            raise ConfigError(f.name, f"invalid value {raw[f.name]!r}: {exc}") from exc
    return ScenarioConfig(**kwargs)


def parse_config_file(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
#  The trial kernel: a work unit of blocks -> each block's {metric: per-trial samples}
#
#  A work unit is a run of consecutive blocks (_work_units).  Each block first
#  takes every random number of its own, in a fixed order (_block_draws).  It
#  then computes the channel state (_channel_state: the spectra and the
#  schedule), U0's bracket verdicts and the NOMA users' share of the samples
#  on sub-batches of about SUB_BATCH_CELLS trial-cells, so its working memory
#  does not grow with the block.  Only U0's FD-DFE trials that the bracket
#  leaves undecided wait for the end of the unit: their gains are gathered
#  across its blocks, each trial with its own ρ, and get their pivots in calls
#  of at most one sub-batch's trials (_pivot_undecided).  Then each block's
#  samples are formed.  Each trial's samples depend on its own draws and ρ
#  alone, so they keep their bits whatever the sub-batch size and the unit.
#
#  Every receiver sees its equalizer through one value ν per symbol: the
#  FD-LE φ, one per channel, or the FD-DFE 1/λ, one per symbol, with ν = inf
#  on singular channels.  Its SINR is PowerAllocation.sinr(ρ, ν), whichever
#  equalizer produced ν.  U0's outage counts take one bracket rule for both
#  equalizers, and under FD-DFE only the trials whose bracket [1/φ, Σ|h_p|²]
#  straddles an outage threshold need pivots (u0_outage_counts).  Every
#  outage fraction is an integer count of symbols or cells, divided once.
#
#  U0's arrays hold one copy of its coupling lattice, not the whole N×M grid
#  (coupling_lattice: e·d copies of an (N/e)×(M/d) problem; e = 1 and d = 4
#  for Table 1 on 16×16), and the two kinds map symbol (k, l) differently:
#  - the spectrum a0, (T, N/e, M/d), is periodic, so symbol (k, l) reads
#    it at (k mod N/e, l mod M/d);
#  - the FD-DFE pivots, (T, NM/(e·d)), come one per lattice symbol, and
#    symbol (k, l) takes that of (k // e, l // d).
#  So φ, a mean over the spectrum, needs one copy; a count of outage flags
#  over one copy is multiplied by the copies that it stands for.
# ---------------------------------------------------------------------------


def u0_outage_counts(cfg: ScenarioConfig, rho: float, h0, a0, splits) -> tuple:
    """U0's outage SINR < ε₀ under each of ``splits``, as far as its bracket
    decides it, from its (T, P+1) gains and its eigenvalue powers on one
    lattice copy, (T, N/e, M/d) (``_channel_state``).  Returns an integer
    array (splits, 3, T): per split, the count of its NM symbols in outage
    and the flags of its first and last symbols; and the (T,) mask of the
    trials that some split leaves undecided, whose three entries are
    placeholders until their exact pivots fill them in (``_pivot_counts``).

    Every ν of a trial lies in a bracket [lo, hi], and the flag only grows
    with ν, also in floating point: so no symbol is in outage if the flag is
    False at hi, and every one if it is True at lo.  Under FD-LE the bracket
    is the point φ, which decides every trial; under FD-DFE it is
    [(1−δ)/Σ|h_p|², φ(1+δ)] around [1/Σ|h_p|², φ] (see :mod:`equalizers`),
    trusted only where φ·Σ|h_p|² is in range, and "none" also needs
    φ(1+δ) ≤ 1/SINGULARITY_EPS, so that no pivot is singular.  So every
    count keeps the bits of the exact pivots.
    """
    eps0 = 2.0**cfg.rate_u0 - 1.0
    lo = hi = phi = batch_noise_enhancement(a0, (-2, -1))
    trusted = clear = True
    with np.errstate(all="ignore"):  # φ is inf on a singular trial, 0 on all-inf powers
        if cfg.equalizer == "dfe":
            energy = (h0.real**2 + h0.imag**2).sum(axis=-1)
            cond = phi * energy
            hi, lo = phi * (1.0 + BRACKET_SLACK), (1.0 - BRACKET_SLACK) / energy
            trusted = (1.0 - BRACKET_SLACK <= cond) & (cond <= BRACKET_MAX_COND)
            clear = trusted & (hi <= 1.0 / SINGULARITY_EPS)
        every = np.array([trusted & (split.sinr(rho, lo) < eps0) for split in splits])
        none = np.array([clear & (split.sinr(rho, hi) >= eps0) for split in splits])
    undecided = ~np.logical_and.reduce(every | none)
    return np.stack([every * (cfg.n * cfg.m), every, every], axis=1), undecided


def _pivot_counts(cfg: ScenarioConfig, rho, h0, splits) -> np.ndarray:
    """``u0_outage_counts``'s (splits, 3, T) array for the trials of ``h0``,
    (T, P+1) gains, from their exact FD-DFE pivots.  ``rho`` is a float or a
    (T, 1) column of each trial's ρ: the SINR takes the same IEEE operations
    on either."""
    prof = cfg.u0_profile
    lam, ok = batch_dfe_lambdas(prof.doppler_taps, prof.delay_taps, h0, cfg.n, cfg.m)
    copies = cfg.n * cfg.m // lam.shape[1]  # e·d symbols share each lattice pivot
    nu = np.divide(1.0, lam, out=lam)  # in place: the pivots are a copy
    nu[~ok] = np.inf
    eps0 = 2.0**cfg.rate_u0 - 1.0
    flags = [split.sinr(rho, nu) < eps0 for split in splits]  # (T, NM/(e·d)) each
    return np.array([(np.count_nonzero(f, axis=1) * copies, f[:, 0], f[:, -1]) for f in flags])


def _pivot_undecided(cfg: ScenarioConfig, splits, parts, step: int) -> None:
    """Fill in U0's undecided trials in ``parts``, (ρ, undecided gains,
    counts, undecided mask, ·) per sub-batch, from their exact pivots.  The
    trials are gathered in order across the parts, each with its part's ρ,
    and pivoted in calls of at most ``step`` trials, so the pivots' workspace
    stays within one sub-batch's lattice cells."""
    gains = np.concatenate([g for _, g, *_ in parts])
    rho = np.repeat([r for r, *_ in parts], [len(g) for _, g, *_ in parts])[:, None]
    calls = [_pivot_counts(cfg, rho[lo:lo + step], gains[lo:lo + step], splits)
             for lo in range(0, len(gains), step)]
    if calls:
        exact, lo = np.concatenate(calls, axis=-1), 0
        for _, g, counts, undecided, _ in parts:
            counts[..., undecided] = exact[..., lo:lo + len(g)]
            lo += len(g)


def _block_draws(cfg: ScenarioConfig, rng, trials: int):
    """Every random number of one block, in the fixed draw order: U0's
    (T, P₀+1) gains, the K static users' (T, K, Pᵢ+1) gains, then the
    scheduler's (T, ·) draws."""
    h0 = sample_gain_matrix(cfg.u0_profile, rng, trials)
    hk = sample_gain_matrix(cfg.noma_profile, rng, trials * cfg.k_users)
    hk = hk.reshape(trials, cfg.k_users, cfg.noma_profile.num_paths)
    return h0, hk, schedule_draws(cfg.scheduler, rng, trials, cfg.k_users)


def _channel_state(cfg: ScenarioConfig, h0, hk, draws):
    """(h0, a0, ak, sel, gsel) of some trials: U0's gains and its squared
    spectrum on one copy of its coupling lattice, (T, N/e, M/d), the static
    users' (T, K, M) squared spectra, then the scheduled user per subchannel
    and its squared gain, both (T, M)."""
    lattice, e, d = coupling_lattice(cfg.u0_profile, cfg.n, cfg.m)
    a0 = power_spectrum(lattice, h0, cfg.n // e, cfg.m // d)
    ak = power_spectrum(cfg.noma_profile, hk, 1, cfg.m)[..., 0, :]
    sel = batch_schedule(ak, cfg.scheduler, draws, cfg.m)
    return h0, a0, ak, sel, ak[np.arange(len(sel))[:, None], sel, np.arange(cfg.m)]


def _unit_samples(cfg: ScenarioConfig, blocks) -> list:
    """Each of ``blocks``' samples, (ρ, rng, trials) triples, in order: one
    {metric: per-trial samples} dict per block.  A block is drawn, then
    computed on sub-batches of at most SUB_BATCH_CELLS // (max(N, K)·M)
    trials, sized by the larger of U0's N×M and the static users' K×M
    arrays; U0's undecided trials get their pivots once the unit's blocks
    are computed, and each block's samples are joined in trial order."""
    downlink = cfg.direction == "downlink"
    oma = PowerAllocation.oma()
    splits = (PowerAllocation.split(cfg.gamma0_sq), oma) if downlink else (oma,)
    step = SUB_BATCH_CELLS // (max(cfg.n, cfg.k_users) * cfg.m)
    held = [_block_parts(cfg, splits, step, *block) for block in blocks]
    _pivot_undecided(cfg, splits, [p for parts in held for p in parts], step)
    samples_of = _downlink_samples if downlink else _uplink_samples
    out = []
    for parts in held:
        samples = [samples_of(cfg, counts, noma) for _, _, counts, _, noma in parts]
        out.append({name: np.concatenate([s[name] for s in samples]) for name in samples[0]})
    return out


def _block_parts(cfg: ScenarioConfig, splits, step: int, rho: float, rng, trials: int) -> list:
    """One block's parts (``_sub_batch_part``), one per sub-batch of ``step``
    trials.  The block's draws are freed on return, before the unit's pivot
    calls."""
    h0, hk, draws = _block_draws(cfg, rng, trials)
    return [_sub_batch_part(cfg, splits, rho, *_channel_state(cfg, h0[lo:lo + step],
                                                              hk[lo:lo + step],
                                                              draws[lo:lo + step]))
            for lo in range(0, trials, step)]


def _sub_batch_part(cfg: ScenarioConfig, splits, rho: float, h0, a0, ak, sel, gsel) -> tuple:
    """(ρ, U0's undecided gains, its counts and undecided mask from
    u0_outage_counts, the NOMA users' part) of one sub-batch's channel
    state, which is freed on return, before the next sub-batch's is
    computed."""
    noma_of = _downlink_noma if cfg.direction == "downlink" else _uplink_noma
    counts, undecided = u0_outage_counts(cfg, rho, h0, a0, splits)
    return rho, h0[undecided], counts, undecided, noma_of(cfg, rho, a0, ak, sel, gsel)


def _downlink_noma(cfg, rho, a0, ak, sel, gsel):
    """The scheduled NOMA users' share of subchannels in outage, (T,): their
    two-stage SIC, stage I (decode U0) then stage II (own symbol)."""
    power = PowerAllocation.split(cfg.gamma0_sq)
    eps0 = 2.0**cfg.rate_u0 - 1.0
    epsi = 2.0**cfg.rate_noma - 1.0
    # Stage I needs all M of a user's symbols, so the worst one decides it.
    # Under FD-LE every symbol has ν = φ; under FD-DFE the largest ν is
    # 1/λ₀ = φ (see batch_static_lambdas), singular under the same rule.
    ok1_user = power.sinr(rho, batch_noise_enhancement(ak, -1)) >= eps0  # (T, K)
    ok1_sel = np.take_along_axis(ok1_user, sel, axis=1)
    snr2 = rho * power.gamma1_sq * gsel
    noma_out = ~(ok1_sel & (snr2 >= epsi))  # (T, M); constant over the N symbols
    return np.count_nonzero(noma_out, axis=1) / cfg.m


def _downlink_samples(cfg, counts, noma_frac) -> dict:
    """Downlink outages of U0 (NOMA power split and OMA baseline), from its
    (2, 3, T) counts, and of the scheduled NOMA users, with the outage sum
    rates."""
    samples = {}
    for name, (count, first, last) in zip(("u0_outage", "u0_outage_oma"), counts):
        samples[name] = count / (cfg.n * cfg.m)
        samples[name + "_first"], samples[name + "_last"] = first, last
    samples["noma_outage"] = noma_frac
    samples["outage_sum_rate_noma"] = (cfg.rate_u0 * (1.0 - samples["u0_outage"])
                                       + cfg.rate_noma * (1.0 - noma_frac))
    samples["outage_sum_rate_oma"] = cfg.rate_u0 * (1.0 - samples["u0_outage_oma"])
    return samples


def _uplink_noma(cfg, rho, a0, ak, sel, gsel):
    """The scheduled NOMA users' uplink stage I, (T,): their ergodic rate
    gain under adaptive rates, else the count of cells whose SINR reaches
    ε_i."""
    # cell (k, l = j·M/d + l′) of the N/e rows of one lattice copy, with
    # U0's power a0[k, l′] and subchannel l's gain, (T, N/e, d, M/d): the
    # other N − N/e rows repeat these e times.  At e = 1 this is the
    # (T, N, M) order, so the adaptive mean sums in that order.
    rows, cols = a0.shape[1:]
    sinr1 = rho * gsel.reshape(-1, 1, cfg.m // cols, cols) / (rho * a0[:, :, None, :] + 1.0)
    if cfg.rate_mode == "adaptive":
        return np.log2(1.0 + sinr1).mean(axis=(1, 2, 3))
    return np.count_nonzero(sinr1 >= 2.0**cfg.rate_noma - 1.0, axis=(1, 2, 3)) * (cfg.n // rows)


def _uplink_samples(cfg, counts, stage1) -> dict:
    """Uplink samples from U0's (1, 3, T) stage-II counts, interference-free
    once the NOMA signals are removed, and the NOMA users' stage I: fixed-rate
    outages or the adaptive ergodic rate gain."""
    nm = cfg.n * cfg.m
    stage2_count = counts[0, 0]
    stage2_frac = stage2_count / nm
    if cfg.rate_mode == "adaptive":
        return {"ergodic_rate_gain": stage1, "u0_outage": stage2_frac}
    noma_frac = 1.0 - stage1 / nm
    # 1 − the share decoded, not count / nm, which can differ in the last bit unless NM = 2^k
    u0_joint = 1.0 - np.where(stage1 == nm, nm - stage2_count, 0) / nm
    return {
        "noma_outage": noma_frac,
        "u0_outage": u0_joint,
        "u0_outage_stage2": stage2_frac,
        "outage_sum_rate_noma": cfg.rate_u0 * (1.0 - u0_joint) + cfg.rate_noma * (1.0 - noma_frac),
        "outage_sum_rate_oma": cfg.rate_u0 * (1.0 - stage2_frac),
    }


# ---------------------------------------------------------------------------
#  Block driver
# ---------------------------------------------------------------------------


def _block_tasks(key: tuple, trials: int, chunk: int) -> list:
    """One (key, trials) task per block of ``chunk`` trials; block b draws
    from substream(*key, b)."""
    return [((*key, b), min(chunk, trials - lo)) for b, lo in enumerate(range(0, trials, chunk))]


def _block_sums(samples: dict) -> dict:
    """Reduce one block's per-trial samples to (Σx, Σx², count) per metric."""
    sums = {}
    for name, values in samples.items():
        x = np.asarray(values, dtype=float)
        sums[name] = (float(x.sum()), float((x**2).sum()), x.size)
    return sums


def _accumulate(block_sums) -> dict:
    """Merge per-block sums in block order: {metric: McEstimate}, with the
    standard error from the unbiased per-trial variance."""
    merged: dict = {}
    for sums in block_sums:
        for name, (s, s2, t) in sums.items():
            acc = merged.get(name, (0.0, 0.0, 0))
            merged[name] = (acc[0] + s, acc[1] + s2, acc[2] + t)
    out = {}
    for name, (s, s2, t) in merged.items():
        mean = s / t
        var = max(s2 - t * mean**2, 0.0) / (t - 1) if t > 1 else 0.0
        out[name] = McEstimate(value=mean, std_error=math.sqrt(var / t), trials=t)
    return out


def _work_units(cfg: ScenarioConfig, workers: int) -> list:
    """The scenario's blocks, (ρ, key, trials) triples in task order, packed
    into work units: runs of consecutive blocks, across SNR points, of at
    most BLOCK_TRIALS trials between them, so a full block is a unit of one.
    The blocks are first cut into min(workers, blocks) near-equal shares and
    no unit crosses a share's edge, so a pool of W > 1 workers gets at least
    min(W, blocks) units."""
    blocks = [(10.0 ** (snr / 10.0), key, trials) for si, snr in enumerate(cfg.snr_db)
              for key, trials in _block_tasks((cfg.seed, si), cfg.trials, BLOCK_TRIALS)]
    shares = max(1, min(workers, len(blocks)))
    units, load, share = [], 0, -1
    for i, block in enumerate(blocks):
        if i * shares // len(blocks) != share or load + block[2] > BLOCK_TRIALS:
            units.append([])
            load, share = 0, i * shares // len(blocks)
        units[-1].append(block)
        load += block[2]
    return units


def _unit_sums(cfg: ScenarioConfig, unit: list) -> list:
    """Run one work unit, block b of it drawing from substream(*key_b), and
    reduce each block's samples to its own sums."""
    blocks = [(rho, substream(*key), trials) for rho, key, trials in unit]
    return [_block_sums(samples) for samples in _unit_samples(cfg, blocks)]


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> list:
    """Run every SNR point of a scenario and return sorted curve points.

    Trials are processed in fixed-size blocks with per-block substreams
    keyed by (seed, snr_index, block_index), packed into work units
    (``_work_units``); each block's sums come from its own trials and are
    merged in block order, so the output is bit-identical for any
    ``workers`` count.
    """
    units = _work_units(cfg, workers)
    workers = min(workers, len(units))  # a pool starts all its processes at once
    if workers > 1:
        import concurrent.futures  # here, so that importing the package stays cheap
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            unit_sums = list(pool.map(_unit_sums, itertools.repeat(cfg), units))
    else:
        unit_sums = (_unit_sums(cfg, unit) for unit in units)
    sums = itertools.chain.from_iterable(unit_sums)

    points = []
    per_point = -(-cfg.trials // BLOCK_TRIALS)  # blocks per SNR point
    for snr in cfg.snr_db:
        for name, est in _accumulate(itertools.islice(sums, per_point)).items():
            points.append(CurvePoint(snr_db=snr, metric=name, value=est.value,
                                     ci_halfwidth=est.ci_halfwidth, trials_used=est.trials))
    points.sort(key=lambda p: (p.metric, p.snr_db))
    return points


# ---------------------------------------------------------------------------
#  Analytic oracles and curve post-processing
# ---------------------------------------------------------------------------


def corollary1_outage(p0: int, rho: float, gamma0_sq: float, gamma1_sq: float,
                      r0: float) -> float:
    """Closed-form DFE outage of the best-protected symbol x₀[N−1, M−1].

    (P₀+1)·Σ|h_p|² is Gamma(s = P₀+1, 1), so the outage is the Erlang CDF
    P(s, x) at x = ε₀s/(ρ(γ₀² − γ₁²ε₀)), or one when γ₀² ≤ γ₁²ε₀.  Below the
    mode it is e^{−x} Σ_{j≥s} x^j/j!, else 1 − e^{−x} Σ_{j<s} x^j/j!: sums of
    positive terms from the largest, by ``math.lgamma``, so nothing cancels.
    The split must be a valid :class:`PowerAllocation`.
    """
    if p0 < 0:
        raise ValueError("p0 must be >= 0")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0.0 < r0 < 1024.0:  # so ε₀ = 2^R₀ − 1 is a positive, finite float
        raise ValueError("r0 must be in (0, 1024)")
    PowerAllocation(gamma0_sq, gamma1_sq)
    eps0 = 2.0**r0 - 1.0
    delta = gamma0_sq - gamma1_sq * eps0
    s = p0 + 1
    x = eps0 * s / (rho * delta) if delta > 0 else math.inf
    if x in (0.0, math.inf):  # ρ = ∞; or γ₀² ≤ γ₁²ε₀, or ρ so small that x overflows
        return min(x, 1.0)
    if x < s:
        term = series = math.exp(s * math.log(x) - x - math.lgamma(s + 1))
        while term > series * 2.0**-53:
            s += 1
            term *= x / s
            series += term
        return series
    term = series = math.exp(p0 * math.log(x) - x - math.lgamma(s))
    for j in range(p0, 0, -1):
        term *= j / x
        series += term
    return 1.0 - series


def diversity_slope(points: list) -> float:
    """Least-squares slope of log10(P) vs log10(ρ) over reliable points.

    Points are reliable when their outage lies in [10/trials, 0.1]; fewer
    than three reliable points, or reliable points at fewer than two distinct
    SNRs, raise :class:`EstimatorUndefinedError`.
    """
    usable = [p for p in points
              if 10.0 / p.trials_used <= p.value <= 0.1]
    if len(usable) < 3:
        raise EstimatorUndefinedError(
            f"need >= 3 points with outage in [10/trials, 0.1], have {len(usable)}")
    if len({p.snr_db for p in usable}) < 2:
        raise EstimatorUndefinedError("the reliable points need >= 2 distinct snr_db values")
    x = np.array([p.snr_db / 10.0 for p in usable])
    y = np.log10([p.value for p in usable])
    return float(np.polyfit(x, y, 1)[0])


CSV_HEADER = ("snr_db", "metric", "value", "ci_halfwidth", "trials")


def emit_csv(points: list, path) -> None:
    """Write curve points sorted by (metric, snr_db), 12 significant digits."""
    rows = sorted(points, key=lambda p: (p.metric, p.snr_db))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for p in rows:
                writer.writerow([f"{p.snr_db:.12g}", p.metric, f"{p.value:.12g}",
                                 f"{p.ci_halfwidth:.12g}", p.trials_used])
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv_points(path) -> list:
    """Parse a CSV produced by :func:`emit_csv` back into curve points."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header!r} in {path}")
            return [CurvePoint(snr_db=float(r[0]), metric=r[1], value=float(r[2]),
                               ci_halfwidth=float(r[3]), trials_used=int(r[4]))
                    for r in reader if r]
    except OSError as exc:
        raise OSError(f"cannot read CSV from {path}: {exc}") from exc
