"""Exact per-pair SINRs of one realization, the Monte-Carlo sum-rate engine,
and run_sweep, the library's one sweep over array sizes.

SINRs and engine run one K x K Gram kernel (_gram_sinrs) on a stack of
draws, on the Grams whose products over N hybrid._hop_grams forms; the
kernel's docstring gives its identities and product counts.  The engine's
block rule, and the pool, SIM_THREADS and allocator rules that the lemma
table shares (_pool_map), live here only.
"""

from __future__ import annotations

import ctypes
import dataclasses
import logging
import math
import os
import platform
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import asymptotics, channel, hybrid
from .asymptotics import _sum_rates
from .channel import ChannelRealization, canonical_drop
from .config import SystemConfig

log = logging.getLogger(__name__)

MODES = ("hybrid", "full_digital")

# A processing variant of the engine: (mode, quant_bits), None = continuous.
Variant = Tuple[str, Optional[int]]

# A run aborts if more than this fraction of trials hits a degenerate
# channel (undefined power normalization or a non-finite SINR).
_MAX_DEGENERATE_FRACTION = 0.01

# Trials are stacked in blocks holding about this many bytes of fading;
# the thread pool runs over blocks, so calls of a single block run serially.
# It is 1 MiB: two trials of two N x K hops at hybrid._LARGE_SLICE complex
# entries each, so a trial gets a block of its own exactly where its slices
# are large and hybrid._gram takes their real view.
_BLOCK_BYTES = 2 * 2 * hybrid._LARGE_SLICE * np.dtype(complex).itemsize


@dataclass(frozen=True)
class RatePoint:
    """Monte-Carlo estimate of the half-duplex sum spectral efficiency."""

    mean_rate: float              # bits/s/Hz, averaged over non-degenerate trials
    std_error: float              # sample std of per-trial rates / sqrt(n_trials)
    n_trials: int                 # trials that entered the average
    per_pair_mean_sinr: np.ndarray  # length-K trial-average of linear SINRs
    n_degenerate: int = 0         # trials skipped for degenerate channels


def _re_dot(x: np.ndarray, y: np.ndarray, axes: int = 1) -> np.ndarray:
    """Re sum x * conj(y) over the last `axes` axes of two complex stacks.

    Re(x conj(y)) = Re x Re y + Im x Im y, so this is one real dot product
    of the float64 views, with no complex product and no conjugate copy.
    A trial's sum depends on its own slices only, never on the stack.
    """
    shape = x.shape[:x.ndim - axes] + (-1,)
    return np.einsum("...i,...i->...", x.view(np.float64).reshape(shape),
                     y.view(np.float64).reshape(shape))


def _gram_sinrs(
    hop1: Tuple[np.ndarray, Optional[np.ndarray]],
    hop2: Tuple[np.ndarray, Optional[np.ndarray]],
    config: SystemConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """(alpha^2, per-pair SINRs) from the hops' K x K Grams: the one K x K kernel.

    Each hop is hybrid._hop_grams's (A, B), with B None in full digital,
    where B = A.  M = A2 A1 is formed once: the end-to-end
    source-to-destination matrix is alpha M, whose diagonal is the desired
    gain and the rest of row k the inter-pair interference at destination
    k.  The power normalization and the relay noise forwarded to
    destination k are

        alpha^2 = p_relay / (p_user * tr(A1 B2 A1) + var_nR * tr(B2 B1)),
        var_nR * alpha^2 * (A2 B1 A2)_kk.

    As A and B are Hermitian, each is a real dot product of real views
    (_re_dot): tr(B2 B1) = Re sum B2 o conj(B1) with no product,
    tr(A1 B2 A1) = Re sum (B2 A1) o conj(A1) and (A2 B1 A2)_kk =
    Re sum_j (A2 B1)_kj conj((A2)_kj) with one each, and both of those are
    M in full digital.  So a full-digital variant forms 1 K x K product per
    block, a hybrid variant 9 (3 per hop in hybrid._hop_grams, then M,
    B2 A1 and A2 B1).  Works on a stack of trials or on one draw.  NaN
    alpha^2 marks a trial whose forwarded power is zero or non-finite, and
    its SINR row is NaN.
    """
    (a1, b1), (a2, b2) = hop1, hop2
    m = a2 @ a1
    if b1 is None:  # full digital, on both hops: B = A, so B2 A1 = A2 B1 = M
        b1, b2, b2a1, a2b1 = a1, a2, m, m
    else:
        b2a1, a2b1 = b2 @ a1, a2 @ b1
    den = config.p_user * _re_dot(b2a1, a1, 2) + config.var_relay_noise * _re_dot(b2, b1, 2)
    ok = np.isfinite(den) & (den > 0.0)
    alpha_sq = np.where(ok, config.p_relay / np.where(ok, den, 1.0), np.nan)
    power = np.abs(m) ** 2
    desired = np.diagonal(power, axis1=-2, axis2=-1)
    off_diagonal = ~np.eye(config.n_pairs, dtype=bool)
    interference = np.where(off_diagonal, power, 0.0).sum(axis=-1)
    relay_noise = _re_dot(a2b1, a2)
    gain = alpha_sq[..., None]
    return alpha_sq, gain * config.p_user * desired / (
        gain * (config.p_user * interference + config.var_relay_noise * relay_noise)
        + config.var_dest_noise
    )


def _block_trials(config: SystemConfig) -> int:
    """Trials per block: about _BLOCK_BYTES of fading (two N x K hops each)."""
    trial_bytes = 2 * config.n_antennas * config.n_pairs * np.dtype(complex).itemsize
    return max(1, _BLOCK_BYTES // trial_bytes)


def _stack_sinrs(
    g1: np.ndarray, g2: np.ndarray, variants: Sequence[Variant], config: SystemConfig
) -> np.ndarray:
    """SINR rows of a stack of draws under each variant, shape (V, trials, K).

    Each variant in turn runs the analog stage, the Grams and the kernel,
    one call each.  The hybrid variants' stages come from one
    hybrid._analog_stages per hop, in variant order, so each hop's channel
    phase is computed once for all quantized variants; full digital is the
    hop without an analog stage.  Each hop's stage is an argument of its
    Grams, and the Grams are arguments of the kernel, so each stage is freed
    before the next hop's is built and no Gram outlives its variant.  A draw
    whose channel, forwarded power or SINR is not finite or overflows gives
    a NaN row, which the engine counts and sinrs raises on, so the loop runs
    without numpy's overflow and invalid-value warnings.
    """
    quants = [hybrid.QuantizationSpec(bits) if bits is not None else None
              for mode, bits in variants if mode == "hybrid"]
    stages = (hybrid._analog_stages(g1, config.n_rx_chains, quants),
              hybrid._analog_stages(g2, config.n_tx_chains, quants))
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for mode, _ in variants:
            analog = mode == "hybrid"
            rows.append(_gram_sinrs(
                hybrid._hop_grams(g1, next(stages[0]) if analog else None),
                hybrid._hop_grams(g2, next(stages[1]) if analog else None),
                config)[1])
    return np.stack(rows)


def _check_variant(mode: str, bits: Optional[int]) -> None:
    """The rule of a processing variant: a known mode and valid phase bits."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if bits is not None:
        hybrid.QuantizationSpec(bits)


def sinrs(
    real: ChannelRealization, config: SystemConfig, mode: str = "hybrid"
) -> np.ndarray:
    """Exact instantaneous SINR of every pair of one realization, shape (K,).

    Entry k is p_user |g2k^H B g1k|^2 over the interference from the other
    pairs, the relay noise forwarded through the end-to-end relay map B,
    and the destination noise.  It runs the Monte-Carlo engine's kernel on
    a one-trial stack, so it equals that trial's row in the engine bit for
    bit: hybrid mode uses config.quant_bits, full_digital ignores it.
    Raises ValueError for channels that are not N x K of config, and
    DegenerateChannelError for a draw the engine would skip (undefined
    power normalization or a non-finite SINR).
    """
    _check_variant(mode, config.quant_bits)
    shape = (config.n_antennas, config.n_pairs)
    if real.g1.shape != shape or real.g2.shape != shape:
        raise ValueError(f"realization channels are {real.g1.shape} and "
                         f"{real.g2.shape}; the config needs {shape}")
    row = _stack_sinrs(
        real.g1[None], real.g2[None], [(mode, config.quant_bits)], config
    )[0, 0]
    if not np.isfinite(row).all():
        raise hybrid.DegenerateChannelError(
            "SINR undefined: zero or non-finite forwarded power or a "
            "non-finite SINR"
        )
    return row


def _block_sinrs(
    config: SystemConfig,
    lo: int,
    hi: int,
    variants: Sequence[Variant],
    drop: Optional[Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """SINR rows of trials lo..hi-1 under each variant, shape (V, hi - lo, K).

    The block is drawn once by channel._fill_block, which returns its
    channel stacks: one stream per trial, with the bits sample_realization
    returns for it.  `drop`, when given, must already be validated.  The
    stacks then go through _stack_sinrs: one variant after another, the
    analog stage, the Grams and the kernel, where each hop's analog stages
    share one channel phase.  Degenerate draws give NaN rows.
    """
    g1, g2, _, _ = channel._fill_block(config, lo, hi, drop)
    return _stack_sinrs(g1, g2, variants, config)


def _worker_count(n_jobs: int) -> int:
    """Pool size: min(CPU count, SIM_THREADS when set, number of jobs)."""
    limit = os.cpu_count() or 1
    env = os.environ.get("SIM_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"SIM_THREADS must be a positive integer, got {env!r}")
        limit = min(limit, cap)
    return max(1, min(limit, n_jobs))


def _keep_freed_memory() -> None:
    """Have glibc keep freed arrays in the heap instead of returning them.

    By default glibc maps each allocation above a dynamic threshold on its
    own and unmaps it when it is freed, and trims the heap's free top once
    it exceeds twice that threshold, so each draw faults its 1-3 MB arrays
    in from the OS again.  Setting either threshold stops glibc adjusting
    both, so both are set: the mmap threshold alone leaves the trim
    threshold at 128 KiB, and the trim threshold alone leaves the mmap
    threshold there.  Off glibc, or where the process exports no mallopt,
    nothing is set.  Where glibc rejects the mmap threshold (its maximum is
    512 KiB on 32-bit builds), the trim threshold is not set either: alone
    it makes glibc fault more, not less.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD in glibc's malloc.h
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def _pool_map(fn: Callable, jobs: Sequence) -> List:
    """[fn(job) for job in jobs], run on _worker_count(len(jobs)) threads.

    The pool of the engine's blocks and of the lemma table's draws.  With
    one worker the jobs run inline in the calling thread: a one-thread pool
    overlaps nothing and only adds its hand-offs.  Otherwise every job is
    queued at once and the workers overlap where numpy releases the GIL
    (hybrid._dot).  The worker count, and so the SIM_THREADS check, is read
    before any job runs.  Both callers rely on that check; run_sweep also
    makes it up front, as an asymptote-only run starts no pool.  Then, on
    glibc, each call sets the allocator's mmap threshold to 32 MiB and its
    trim threshold to 256 MiB (_keep_freed_memory), so that the jobs' freed
    arrays stay in the heap for the next draw instead of being faulted in
    from the OS again.  The setting lasts for the rest of the process.
    """
    workers = _worker_count(len(jobs))
    _keep_freed_memory()
    if workers == 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, jobs))


def _rate_point(sinr_table: np.ndarray) -> RatePoint:
    """Reduce one variant's (n_trials, K) SINR table in trial order.

    A trial enters the average only if every SINR in its row is finite;
    the rest are counted as degenerate, and more than 1% of them abort.
    With the caller's n_trials >= 2, two rows always remain: below 100
    trials none may be degenerate, and from 100 on at least 99 rows stay.
    """
    n_trials = sinr_table.shape[0]
    valid = np.isfinite(sinr_table).all(axis=1)
    n_degenerate = int(n_trials - valid.sum())
    if n_degenerate > _MAX_DEGENERATE_FRACTION * n_trials:
        raise RuntimeError(
            f"{n_degenerate} of {n_trials} trials degenerate (> "
            f"{_MAX_DEGENERATE_FRACTION:.0%}); configuration unusable"
        )
    kept = sinr_table[valid]
    rates = _sum_rates(kept)
    n_used = int(kept.shape[0])
    return RatePoint(
        mean_rate=float(np.mean(rates)),
        std_error=float(np.std(rates, ddof=1) / np.sqrt(n_used)),
        n_trials=n_used,
        per_pair_mean_sinr=kept.mean(axis=0),
        n_degenerate=n_degenerate,
    )


def _sweep_rates(
    configs: Sequence[SystemConfig],
    n_trials: int,
    variants: Sequence[Variant],
    drop: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[List[RatePoint]]:
    """`monte_carlo_rates` of several array sizes on one thread pool.

    `configs` differ in array size and powers only.  Each config's trials
    are cut into its own blocks, exactly as a separate call would cut them,
    and every (config, block) job goes to one _pool_map, largest array first:
    a worker free at the end of one array size takes the next size's
    blocks, and the costliest blocks do not come last.  Each block writes
    its own trials' rows of its config's (V, n_trials, K) SINR table in its
    worker, and the tables are reduced in order once every block has run.
    Returns one RatePoint list per config, in order.  The first failing
    config, in the given order, raises with the message of its first
    failing variant, but only after every block of every config has run:
    a failing config is known only once its whole table is in, and the
    smallest array, first in a sweep, runs last.  A run that
    succeeds logs one INFO line per config, in order, with its trials,
    its blocks and the degenerate draws of each variant.
    """
    hybrid._check_int("n_trials", n_trials, 2)
    variants = list(variants)
    if not variants:
        raise ValueError("variants must not be empty")
    for mode, bits in variants:
        _check_variant(mode, bits)
    if drop is not None:
        drop = channel._validated_drop(drop, configs[0].n_pairs)

    # The (lo, hi) trial ranges of each config's blocks, in trial order.
    bounds = [[(lo, min(lo + block, n_trials)) for lo in range(0, n_trials, block)]
              for block in map(_block_trials, configs)]
    order = sorted(range(len(configs)), key=lambda c: -configs[c].n_antennas)
    jobs = [(c, lo, hi) for c in order for lo, hi in bounds[c]]
    tables = [np.empty((len(variants), n_trials, config.n_pairs)) for config in configs]

    def run_block(job: Tuple[int, int, int]) -> None:
        c, lo, hi = job
        tables[c][:, lo:hi] = _block_sinrs(configs[c], lo, hi, variants, drop)

    _pool_map(run_block, jobs)
    points = [[_rate_point(t) for t in table] for table in tables]
    labels = [mode if mode == "full_digital" else f"{mode}({render_beta(bits)})"
              for mode, bits in variants]
    for config, ranges, cell in zip(configs, bounds, points):
        degenerate = (f"{label}={p.n_degenerate}" for label, p in zip(labels, cell))
        log.info("N=%d: trials=%d blocks=%d degenerate: %s", config.n_antennas,
                 n_trials, len(ranges), " ".join(degenerate))
    return points


def monte_carlo_rates(
    config: SystemConfig,
    n_trials: int,
    variants: Sequence[Variant],
    drop: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[RatePoint]:
    """Average spectral efficiency of several processing variants on shared draws.

    `variants` lists (mode, quant_bits) pairs; quant_bits (None for
    continuous phases) overrides config.quant_bits and is ignored in
    full_digital mode.  Each trial is a pure function of (config.seed,
    trial index), drawn on its own stream (the bits sample_realization
    returns), and is drawn once for all variants.  Trials run in blocks
    of about 1 MB of fading (max(1, 2**20 // (2 N K 16)) trials).  numpy's
    own SeedSequence supplies the pool that a block's trial stream seeds
    share, once per block, and the block finishes each trial's seed from
    there, giving trial_rng's stream (trial_rng itself serves only trials
    from 2**32 on).  Its loop only fills each trial's random numbers; the
    gains, the complex fading and its scaling are then computed once per
    block, and the block's stacks are reduced to K x K Grams together.  A
    trial's SINRs do not depend on the block it lands in or on the other
    variants of the call.  A thread pool of
    min(CPU count, SIM_THREADS when set, number of blocks) workers runs the
    blocks, overlapping where numpy releases the GIL (see hybrid._dot); one
    worker runs them inline (_pool_map).  It is run_sweep's pool for a
    single array size.
    Each variant's reduction runs in ascending trial order, so the result
    is bit-identical for any worker count and equals a separate
    `monte_carlo_rate` call per variant.  `drop`, when given, is validated
    once and pins the large-scale gains for every trial; otherwise each
    trial redraws the user placement.  Noise enters through its statistics
    only; no noise samples are drawn.

    Degenerate draws are skipped and counted per variant; the first
    variant, in the given order, whose degenerate draws exceed 1% of
    n_trials aborts the call.  Returns one RatePoint per variant, in order.
    """
    return _sweep_rates([config], n_trials, variants, drop)[0]


def monte_carlo_rate(
    config: SystemConfig,
    n_trials: int,
    mode: str = "hybrid",
    drop: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> RatePoint:
    """Average spectral efficiency of one processing mode over seeded trials.

    The one-variant call of `monte_carlo_rates`: hybrid mode uses
    config.quant_bits, full_digital ignores it.  Degenerate draws are
    skipped and counted, and the run aborts if they exceed 1% of n_trials.
    """
    return monte_carlo_rates(config, n_trials, [(mode, config.quant_bits)], drop)[0]


# Each power regime: (user-side key, relay-side key, closed-form law or
# None).  An e*_db key is an energy E, spread over the array as E/N; a
# p*_db key is a power, used as is.  The law is named and looked up in
# asymptotics at each call, so a wrapper installed there sees the call.
_REGIMES = {
    "case1": ("eu_db", "er_db", "rate_case1"),
    "case2": ("eu_db", "pr_db", "rate_case2"),
    "case3": ("pu_db", "er_db", "rate_case3"),
    "fixed_power": ("pu_db", "pr_db", None),
}
CASES = tuple(_REGIMES)
SWEEP_MODES = ("asymptote",) + MODES
DROP_POLICIES = ("redraw_per_trial", "fixed_drop")

CSV_COLUMNS = (
    "case", "N", "beta", "mode", "mean_rate_bps_hz", "std_err",
    "trials", "asymptote_rate", "degenerate_trials",
)


def db_to_linear(x_db: float) -> float:
    """10^(x/10); inf where that overflows a float."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


def render_beta(beta: Optional[int]) -> str:
    """How a phase resolution is written: its bit count, or cont for None."""
    return "cont" if beta is None else str(beta)


def _beta_key(beta: Optional[int]) -> int:
    return -1 if beta is None else beta


def _check_lists(
    n_values: Sequence[int], beta_values: Sequence[Optional[int]]
) -> None:
    """The antenna-list and beta-list rules of a sweep and of the lemma table."""
    if not n_values:
        raise ValueError("n_values must not be empty")
    for i, n in enumerate(n_values):
        hybrid._check_int(f"n_values[{i}]", n, 1)
    if any(a >= b for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly ascending")
    if not beta_values:
        raise ValueError("beta_values must not be empty")
    if len(set(beta_values)) < len(beta_values):
        raise ValueError("beta_values must not repeat")
    try:
        for beta in beta_values:
            if beta is not None:
                hybrid.QuantizationSpec(beta)
    except ValueError as exc:
        raise ValueError(f"beta_values: {exc}")


@dataclass(frozen=True)
class SweepSpec:
    """One batch of simulation cells, checked on construction.

    beta_values uses None for continuous phases.  n_values, beta_values and
    modes are stored as tuples, whatever sequence is given.  Energies are
    stored in dB exactly as given.  The regime's two settings must be set,
    and every dB setting that is set, read by the regime or not, must be a
    finite number (hybrid._check_real) that converts to a finite linear
    value.
    """

    case: str
    n_values: Tuple[int, ...]
    beta_values: Tuple[Optional[int], ...] = (None,)
    modes: Tuple[str, ...] = ("hybrid",)
    trials: int = 1000
    eu_db: Optional[float] = None
    er_db: Optional[float] = None
    pu_db: Optional[float] = None
    pr_db: Optional[float] = None
    drop_policy: str = "redraw_per_trial"

    def __post_init__(self) -> None:
        for name in ("n_values", "beta_values", "modes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        _check_lists(self.n_values, self.beta_values)
        if not self.modes:
            raise ValueError("modes must not be empty")
        unknown = [m for m in self.modes if m not in SWEEP_MODES]
        if unknown:
            raise ValueError(f"unknown modes: {', '.join(unknown)}")
        hybrid._check_int("trials", self.trials, 2)
        if self.drop_policy not in DROP_POLICIES:
            raise ValueError(f"drop_policy must be one of {DROP_POLICIES}")
        user, relay, law = _REGIMES[self.case]
        missing = [k.replace("_", "-") for k in (user, relay) if getattr(self, k) is None]
        if missing:
            raise ValueError(f"{self.case} requires settings: {', '.join(missing)}")
        for key in ("eu_db", "er_db", "pu_db", "pr_db"):
            value = getattr(self, key)
            if value is None:
                continue
            hybrid._check_real(key, value)
            if not math.isfinite(db_to_linear(value)):
                raise ValueError(f"{key} = {value!r} dB has no finite linear value")
        if law is None and "asymptote" in self.modes:
            raise ValueError(f"{self.case} has no closed-form asymptote")


def _levels(spec: SweepSpec) -> Tuple[Tuple[float, bool], ...]:
    """The regime's user and relay settings as (linear value, is an energy)."""
    user, relay, _ = _REGIMES[spec.case]
    return tuple((db_to_linear(getattr(spec, k)), k.startswith("e")) for k in (user, relay))


def _cell_powers(spec: SweepSpec, n: int) -> Tuple[float, float]:
    """Per-cell linear (p_user, p_relay): an energy spreads as E/N."""
    return tuple(value / (n if energy else 1) for value, energy in _levels(spec))


def _asymptote_rate(
    spec: SweepSpec,
    beta: Optional[int],
    eta: Tuple[np.ndarray, np.ndarray],
    config: SystemConfig,
) -> Optional[float]:
    """Closed-form limit rate of the cell, None where no law applies.

    Only the regime's energies reach the law; a fixed-power side has none.
    """
    law = _REGIMES[spec.case][2]
    if law is None:
        return None
    e_user, e_relay = (value if energy else None for value, energy in _levels(spec))
    delta = hybrid.QuantizationSpec(beta).step if beta is not None else 0.0
    return getattr(asymptotics, law)(asymptotics.AsymptoticInputs(
        *eta, r=min(config.n_rx_chains, config.n_tx_chains, config.n_pairs),
        var_relay_noise=config.var_relay_noise, var_dest_noise=config.var_dest_noise,
        e_user=e_user, e_relay=e_relay, delta=delta,
    ))


def _row(spec, n, mode, beta, limit, mean, std_err=0.0, trials=0, degenerate=0) -> dict:
    """One row; the defaults are an asymptote row's, whose mean is its limit."""
    values = (spec.case, n, beta, mode, mean, std_err, trials, limit, degenerate)
    return dict(zip(CSV_COLUMNS, values))


def run_sweep(spec: SweepSpec, config: SystemConfig) -> List[dict]:
    """Run every cell of the sweep and return its rows, keyed by CSV_COLUMNS.

    `config` is the scenario; each cell sets its array size, powers and
    phase bits.  Every check raises ValueError before the first draw: the
    chains must fit the smallest array, a set SIM_THREADS must be a
    positive integer, and the canonical drop's gains must be finite and
    above 0 where read.  Asymptote rows are closed forms on the canonical
    benchmark drop, which the fixed-drop policy pins the Monte-Carlo runs
    to as well; they do not move with trials, seed or N, so each beta's
    limit is evaluated once.  Full-digital cells have no phase quantizer,
    so they run once per N, tagged with beta None.  All Monte-Carlo cells
    of one N share their draws, and the blocks of every N share one thread
    pool.  The first failing cell, in the order N, then full digital, then
    hybrid by beta, raises RuntimeError once every block of the run has
    run, so a failure at a small N costs the whole large-N part first.
    Rows are sorted by (case, N, beta, mode), continuous phases first.
    """
    powers = [_cell_powers(spec, n) for n in spec.n_values]
    bases = [dataclasses.replace(config, n_antennas=n, p_user=pu, p_relay=pr)
             for n, (pu, pr) in zip(spec.n_values, powers)]
    _worker_count(1)  # an asymptote-only run starts no pool, yet is checked
    bench_drop = canonical_drop(config)
    if _REGIMES[spec.case][2] or spec.drop_policy == "fixed_drop":
        try:
            channel._check_gains(*bench_drop)
        except ValueError as exc:
            raise ValueError("cell_radius_m, guard_radius_m, pathloss_exp and shadow_std_db "
                             f"give the canonical drop a zero or non-finite gain: {exc}") from None
    mc_drop = bench_drop if spec.drop_policy == "fixed_drop" else None
    variants = []
    if "full_digital" in spec.modes:
        variants.append(("full_digital", None))
    if "hybrid" in spec.modes:
        variants.extend(("hybrid", beta) for beta in spec.beta_values)
    limits = {b: _asymptote_rate(spec, b, bench_drop, config) for b in spec.beta_values}
    points = (_sweep_rates(bases, spec.trials, variants, drop=mc_drop)
              if variants else [[] for _ in bases])
    rows = []
    for n, cell_points in zip(spec.n_values, points):
        for (mode, beta), p in zip(variants, cell_points):
            limit = limits[beta] if mode == "hybrid" else None
            rows.append(_row(spec, n, mode, beta, limit, p.mean_rate,
                             p.std_error, p.n_trials, p.n_degenerate))
        if "asymptote" in spec.modes:
            rows.extend(_row(spec, n, "asymptote", beta, limit, limit)
                        for beta, limit in limits.items())
    rows.sort(key=lambda r: (r["case"], r["N"], _beta_key(r["beta"]), r["mode"]))
    return rows
