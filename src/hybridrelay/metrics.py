"""Exact per-pair SINRs of one realization and the Monte-Carlo sum-rate engine.

Both run one K x K Gram kernel (_variant_sinrs) on a stack of draws.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import channel, hybrid
from .channel import ChannelRealization
from .config import SystemConfig

MODES = ("hybrid", "full_digital")

# A processing variant of the engine: (mode, quant_bits), None = continuous.
Variant = Tuple[str, Optional[int]]

# A run aborts if more than this fraction of trials hits a degenerate
# channel (undefined power normalization or a non-finite SINR).
_MAX_DEGENERATE_FRACTION = 0.01

# Trials are stacked in blocks holding about this many bytes of fading;
# the thread pool runs over blocks, so calls of a single block run serially.
_BLOCK_BYTES = 2 ** 20


@dataclass(frozen=True)
class RatePoint:
    """Monte-Carlo estimate of the half-duplex sum spectral efficiency."""

    mean_rate: float              # bits/s/Hz, averaged over non-degenerate trials
    std_error: float              # sample std of per-trial rates / sqrt(n_trials)
    n_trials: int                 # trials that entered the average
    per_pair_mean_sinr: np.ndarray  # length-K trial-average of linear SINRs
    n_degenerate: int = 0         # trials skipped for degenerate channels


def _gram_sinrs(
    hop1: Tuple[np.ndarray, np.ndarray],
    hop2: Tuple[np.ndarray, np.ndarray],
    alpha_sq: np.ndarray,
    config: SystemConfig,
) -> np.ndarray:
    """Per-pair SINRs from the hops' K x K Grams (hybrid._hop_grams).

    The end-to-end source-to-destination matrix is S = alpha * A2 A1: its
    diagonal is the desired gain and the rest of row k the inter-pair
    interference at destination k.  The relay noise forwarded to
    destination k has power var_nR * alpha^2 * (A2 B1 A2)_kk.  Works on a
    stack of trials, one alpha^2 each; a NaN alpha^2 gives a NaN row.
    """
    (a1, b1), (a2, _) = hop1, hop2
    power = np.abs(a2 @ a1) ** 2
    desired = np.diagonal(power, axis1=-2, axis2=-1)
    off_diagonal = ~np.eye(config.n_pairs, dtype=bool)
    interference = np.where(off_diagonal, power, 0.0).sum(axis=-1)
    relay_noise = np.diagonal(a2 @ b1 @ a2, axis1=-2, axis2=-1).real
    gain = np.asarray(alpha_sq)[..., None]
    return gain * config.p_user * desired / (
        gain * (config.p_user * interference + config.var_relay_noise * relay_noise)
        + config.var_dest_noise
    )


def _sum_rates(sinrs: np.ndarray) -> np.ndarray:
    """Half-duplex sum rate 0.5 * sum_k log2(1 + SINR_k) of each SINR row."""
    return 0.5 * np.sum(np.log2(1.0 + sinrs), axis=-1)


def _block_trials(config: SystemConfig) -> int:
    """Trials per block: about _BLOCK_BYTES of fading (two N x K hops each)."""
    trial_bytes = 2 * config.n_antennas * config.n_pairs * np.dtype(complex).itemsize
    return max(1, _BLOCK_BYTES // trial_bytes)


def _variant_sinrs(
    g1: np.ndarray,
    g2: np.ndarray,
    mode: str,
    bits: Optional[int],
    config: SystemConfig,
) -> np.ndarray:
    """SINR rows of a stack of draws under one (mode, quant_bits) variant."""
    if mode == "full_digital":
        hop1, hop2 = hybrid._hop_grams(g1), hybrid._hop_grams(g2)
    else:
        quant = hybrid.QuantizationSpec(bits) if bits is not None else None
        f1 = hybrid.build_analog(g1, config.n_rx_chains, quant)
        f2 = hybrid.build_analog(g2, config.n_tx_chains, quant)
        hop1 = hybrid._hop_grams(f1 @ g1, f1)
        hop2 = hybrid._hop_grams(f2 @ g2, f2)
    alpha_sq = hybrid._alpha_squared(
        hop1, hop2, config.p_user, config.p_relay, config.var_relay_noise
    )
    return _gram_sinrs(hop1, hop2, alpha_sq, config)


def sinrs(
    real: ChannelRealization, config: SystemConfig, mode: str = "hybrid"
) -> np.ndarray:
    """Exact instantaneous SINR of every pair of one realization, shape (K,).

    Entry k is p_user |g2k^H B g1k|^2 over the interference from the other
    pairs, the relay noise forwarded through the end-to-end relay map B,
    and the destination noise.  It runs the Monte-Carlo engine's kernel on
    a one-trial stack, so it equals that trial's row in the engine bit for
    bit: hybrid mode uses config.quant_bits, full_digital ignores it.
    Raises DegenerateChannelError for a draw the engine would skip
    (undefined power normalization or a non-finite SINR).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    row = _variant_sinrs(
        real.g1[None], real.g2[None], mode, config.quant_bits, config
    )[0]
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

    Every trial is drawn once, on its own stream, straight into its slice
    of the block's two (hi - lo, N, K) channel stacks; `drop`, when given,
    must already be validated.  The stacks then go through the analog
    stage, the Grams, alpha and the SINRs of one variant after another.
    Degenerate draws give NaN rows.
    """
    shape = (hi - lo, config.n_antennas, config.n_pairs)
    g1, g2 = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for i, trial in enumerate(range(lo, hi)):
        channel._fill_trial(config, trial, drop, g1[i], g2[i])
    out = np.empty((len(variants), hi - lo, config.n_pairs))
    for v, (mode, bits) in enumerate(variants):
        out[v] = _variant_sinrs(g1, g2, mode, bits, config)
    return out


def _env_thread_cap() -> Optional[int]:
    """The SIM_THREADS worker cap; None when the variable is unset or empty."""
    env = os.environ.get("SIM_THREADS")
    if not env:
        return None
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"SIM_THREADS must be a positive integer, got {env!r}")
    return cap


def _worker_count(n_blocks: int) -> int:
    """Pool size: min(CPU count, SIM_THREADS when set, number of blocks)."""
    cap = _env_thread_cap()
    limit = os.cpu_count() or 1
    return max(1, min(limit, cap or limit, n_blocks))


def _rate_point(sinr_table: np.ndarray) -> RatePoint:
    """Reduce one variant's (n_trials, K) SINR table in trial order.

    A trial enters the average only if every SINR in its row is finite;
    the rest are counted as degenerate, and more than 1% of them abort.
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
    if kept.shape[0] < 2:
        raise RuntimeError("fewer than two usable trials")
    rates = _sum_rates(kept)
    n_used = int(kept.shape[0])
    return RatePoint(
        mean_rate=float(np.mean(rates)),
        std_error=float(np.std(rates, ddof=1) / np.sqrt(n_used)),
        n_trials=n_used,
        per_pair_mean_sinr=kept.mean(axis=0),
        n_degenerate=n_degenerate,
    )


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
    trial index), drawn on its own stream straight into its block's
    channel stacks (the bits sample_realization returns), and is drawn
    once for all variants.  Trials run in blocks of about 1 MB of fading
    (max(1, 2**20 // (2 N K 16)) trials), stacked and reduced to K x K
    Grams together; a trial's SINRs do not depend on the block it lands in
    or on the other variants of the call.  A thread pool runs the blocks
    with min(CPU count, SIM_THREADS, number of blocks) workers, the
    SIM_THREADS environment variable counting only when set; a call with
    one worker, such as one that fits in a single block, runs serially.
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
    if n_trials < 2:
        raise ValueError("n_trials must be at least 2")
    variants = list(variants)
    if not variants:
        raise ValueError("variants must not be empty")
    for mode, bits in variants:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if bits is not None:
            hybrid.QuantizationSpec(bits)
    if drop is not None:
        drop = channel._validated_drop(drop, config.n_pairs)

    sinr_table = np.empty((len(variants), n_trials, config.n_pairs))

    def run_block(lo: int, hi: int) -> None:
        sinr_table[:, lo:hi] = _block_sinrs(config, lo, hi, variants, drop)

    block = _block_trials(config)
    bounds = [(lo, min(lo + block, n_trials)) for lo in range(0, n_trials, block)]
    workers = _worker_count(len(bounds))
    if workers == 1:
        for lo, hi in bounds:
            run_block(lo, hi)
    else:
        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(run_block, lo, hi) for lo, hi in bounds]:
                future.result()
    return [_rate_point(table) for table in sinr_table]


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
