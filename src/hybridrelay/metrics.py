"""Exact per-pair SINRs, per-realization sum rate, and the Monte-Carlo engine."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import channel, hybrid
from .channel import ChannelRealization
from .config import SystemConfig
from .hybrid import FullDigitalProcessor, HybridProcessor

MODES = ("hybrid", "full_digital")

# A run aborts if more than this fraction of trials hits a degenerate
# channel (undefined power normalization).
_MAX_DEGENERATE_FRACTION = 0.01

# Trials are stacked in blocks holding about this many bytes of fading;
# the thread pool runs over blocks, so cells of a single block run serially.
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


def _check_pair_index(k: int, config: SystemConfig) -> None:
    if not 0 <= k < config.n_pairs:
        raise ValueError(f"pair index must be in [0, {config.n_pairs}), got {k}")


def sinr_exact(
    real: ChannelRealization,
    proc: HybridProcessor,
    config: SystemConfig,
    k: int,
) -> float:
    """Exact instantaneous SINR of pair k under hybrid processing.

    Numerator p_user |g2k^H F2^H W F1 g1k|^2 over interference from the
    other pairs, forwarded relay noise, and destination noise, all taken
    from the K x K Grams of the processor's effective channels (which
    carry the realization).  Pair indices are 0-based.
    """
    _check_pair_index(k, config)
    hop1 = hybrid._hop_grams(proc.a1, proc.f1)
    hop2 = hybrid._hop_grams(proc.a2, proc.f2)
    return float(_gram_sinrs(hop1, hop2, proc.alpha ** 2, config)[k])


def sinr_full_digital(
    real: ChannelRealization,
    proc: FullDigitalProcessor,
    config: SystemConfig,
    k: int,
) -> float:
    """Exact instantaneous SINR of pair k under the full-digital reference."""
    _check_pair_index(k, config)
    hop1, hop2 = hybrid._hop_grams(real.g1), hybrid._hop_grams(real.g2)
    return float(_gram_sinrs(hop1, hop2, proc.alpha ** 2, config)[k])


def rate_of_realization(sinrs: np.ndarray) -> float:
    """Half-duplex sum rate 0.5 * sum_k log2(1 + SINR_k) for one realization."""
    sinrs = np.asarray(sinrs, dtype=float)
    if sinrs.size == 0 or np.any(~np.isfinite(sinrs)) or np.any(sinrs < 0):
        raise ValueError("SINRs must be a non-empty vector of finite values >= 0")
    return float(0.5 * np.sum(np.log2(1.0 + sinrs)))


def _block_trials(config: SystemConfig) -> int:
    """Trials per block: about _BLOCK_BYTES of fading (two N x K hops each)."""
    trial_bytes = 2 * config.n_antennas * config.n_pairs * np.dtype(complex).itemsize
    return max(1, _BLOCK_BYTES // trial_bytes)


def _block_sinrs(
    config: SystemConfig,
    lo: int,
    hi: int,
    mode: str,
    drop: Optional[Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """SINR rows of trials lo..hi-1, NaN rows for degenerate draws.

    Every trial is drawn on its own stream; the draws are stacked and go
    through the analog stage, the Grams, alpha and the SINRs together.
    """
    shape = (hi - lo, config.n_antennas, config.n_pairs)
    g1, g2 = np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)
    for i, trial in enumerate(range(lo, hi)):
        real = channel.sample_realization(config, trial, drop=drop)
        g1[i], g2[i] = real.g1, real.g2
    if mode == "full_digital":
        hop1, hop2 = hybrid._hop_grams(g1), hybrid._hop_grams(g2)
    else:
        bits = config.quant_bits
        quant = hybrid.QuantizationSpec(bits) if bits is not None else None
        f1 = hybrid.build_analog(g1, config.n_rx_chains, quant)
        f2 = hybrid.build_analog(g2, config.n_tx_chains, quant)
        hop1 = hybrid._hop_grams(f1 @ g1, f1)
        hop2 = hybrid._hop_grams(f2 @ g2, f2)
    alpha_sq = hybrid._alpha_squared(
        hop1, hop2, config.p_user, config.p_relay, config.var_relay_noise
    )
    return _gram_sinrs(hop1, hop2, alpha_sq, config)


def _worker_count(n_blocks: int, max_workers: Optional[int]) -> int:
    limit = max_workers if max_workers is not None else os.cpu_count() or 1
    env = os.environ.get("SIM_THREADS")
    if env:
        try:
            limit = min(limit, max(1, int(env)))
        except ValueError:
            pass
    return max(1, min(limit, n_blocks))


def monte_carlo_rate(
    config: SystemConfig,
    n_trials: int,
    mode: str = "hybrid",
    drop: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    max_workers: Optional[int] = None,
) -> RatePoint:
    """Average spectral efficiency over seeded Monte-Carlo trials.

    Each trial is a pure function of (config.seed, trial index), drawn on
    its own stream.  Trials run in blocks of about 1 MB of fading
    (max(1, 2**20 // (2 N K 16)) trials), stacked and reduced to K x K
    Grams together; a trial's SINRs do not depend on the block it lands in.
    A thread pool runs the blocks only when a cell has more than one, with
    at most `max_workers` (default: the CPU count) workers, capped by the
    SIM_THREADS environment variable.  The reduction always runs in
    ascending trial order, so the result is bit-identical for any worker
    count.  `drop`, when given, pins the large-scale gains for every trial;
    otherwise each trial redraws the user placement.  Noise enters through
    its statistics only; no noise samples are drawn.

    Degenerate draws are skipped and counted, and the run aborts if they
    exceed 1% of n_trials.
    """
    if n_trials < 2:
        raise ValueError("n_trials must be at least 2")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if drop is not None:
        drop = channel._validated_drop(drop, config.n_pairs)

    sinr_table = np.empty((n_trials, config.n_pairs))

    def run_block(lo: int, hi: int) -> None:
        sinr_table[lo:hi] = _block_sinrs(config, lo, hi, mode, drop)

    block = _block_trials(config)
    bounds = [(lo, min(lo + block, n_trials)) for lo in range(0, n_trials, block)]
    workers = _worker_count(len(bounds), max_workers)
    if workers == 1:
        for lo, hi in bounds:
            run_block(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(run_block, lo, hi) for lo, hi in bounds]:
                future.result()

    valid = ~np.isnan(sinr_table[:, 0])
    n_degenerate = int(n_trials - valid.sum())
    if n_degenerate > _MAX_DEGENERATE_FRACTION * n_trials:
        raise RuntimeError(
            f"{n_degenerate} of {n_trials} trials degenerate (> "
            f"{_MAX_DEGENERATE_FRACTION:.0%}); configuration unusable"
        )
    kept = sinr_table[valid]
    if kept.shape[0] < 2:
        raise RuntimeError("fewer than two usable trials")
    rates = 0.5 * np.sum(np.log2(1.0 + kept), axis=1)
    n_used = int(kept.shape[0])
    return RatePoint(
        mean_rate=float(np.mean(rates)),
        std_error=float(np.std(rates, ddof=1) / np.sqrt(n_used)),
        n_trials=n_used,
        per_pair_mean_sinr=kept.mean(axis=0),
        n_degenerate=n_degenerate,
    )
