"""Two-hop channel generation: small-scale fading, user geometry, RNG streams.

Every random draw comes from a stream derived with numpy's SeedSequence from
(seed, purpose, index).  Streams are therefore splittable: any trial can be
generated on any worker, in any order, with identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .config import SystemConfig

# Purpose tags keep trial draws, drop draws and diagnostic draws on
# disjoint substreams of the same seed.
_TRIAL_STREAM = 0
_LEMMA_STREAM = 2

# Entropy for the canonical fixed drop.  Deliberately not derived from the
# scenario seed: a sweep that pins the user placement must report the same
# closed-form asymptote columns no matter which seed drives the fading.
_CANONICAL_DROP_ENTROPY = 314159265358979323


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the full propagation state for all K pairs.

    Only the composite channels are kept; the small-scale fading of hop i
    is g_i / sqrt(eta_i), column by column.
    """

    eta1: np.ndarray  # length-K large-scale gains, source side
    eta2: np.ndarray  # length-K large-scale gains, destination side
    g1: np.ndarray    # N x K sources -> relay, column k scaled by sqrt(eta1[k])
    g2: np.ndarray    # N x K relay -> destinations, column k by sqrt(eta2[k])


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one Monte-Carlo trial of one seed."""
    if trial < 0:
        raise ValueError("trial index must be non-negative")
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_TRIAL_STREAM, trial))
    )


def lemma_rng(seed: int, n: int) -> np.random.Generator:
    """Generator for the convergence diagnostics at array size n."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_LEMMA_STREAM, n))
    )


def _complex_normals(normals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write (normals[0] + 1j * normals[1]) / sqrt(2) into `out`, in place.

    Bit for bit that expression: the sum holds both parts exactly, and the
    in-place division is the same complex-by-real division.
    """
    out.real = normals[0]
    out.imag = normals[1]
    out /= math.sqrt(2.0)
    return out


def sample_small_scale(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n x k matrix of i.i.d. circularly-symmetric unit-variance entries.

    Real parts are drawn first, then imaginary parts, so the layout of the
    stream is part of the reproducibility contract.
    """
    return _complex_normals(rng.standard_normal((2, n, k)), np.empty((n, k), complex))


def _gains(config: SystemConfig, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Large-scale gains from area quantiles u and shadowing normals z.

    Elementwise, so one call serves one side of one trial or a whole block:
    shadow * (r / r_guard)^(-nu), with the radius r from the inverse CDF
    of the annulus area law and shadow = 10^(sigma_sh * z / 10).
    """
    lo = config.guard_radius_m ** 2
    hi = config.cell_radius_m ** 2
    r = np.sqrt(lo + u * (hi - lo))
    shadow = 10.0 ** (config.shadow_std_db * z / 10.0)
    return shadow * (r / config.guard_radius_m) ** (-config.pathloss_exp)


def sample_large_scale(
    config: SystemConfig, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw per-user large-scale gains for both hops.

    Positions are uniform over the annulus area between the guard radius and
    the cell radius (radius via inverse-CDF of the area law).  Shadowing is
    log-normal, 10^(sigma_sh * z / 10) with z standard normal.  The gain is
    shadow * (r / r_guard)^(-nu).  Source side is drawn before destination
    side, K area quantiles and then K shadowing normals each; the two sides
    are independent.
    """
    k = config.n_pairs
    eta1 = _gains(config, rng.random(k), rng.standard_normal(k))
    eta2 = _gains(config, rng.random(k), rng.standard_normal(k))
    return eta1, eta2


def canonical_drop(config: SystemConfig) -> Tuple[np.ndarray, np.ndarray]:
    """The fixed benchmark drop for this geometry.

    Drawn from a constant-entropy stream so it does not move with the
    scenario seed; sweeps that pin the placement stay comparable across
    seeds and their asymptote columns are seed-independent.
    """
    rng = np.random.default_rng(np.random.SeedSequence(_CANONICAL_DROP_ENTROPY))
    return sample_large_scale(config, rng)


def _validated_drop(
    drop: Tuple[np.ndarray, np.ndarray], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    eta1 = np.asarray(drop[0], dtype=float)
    eta2 = np.asarray(drop[1], dtype=float)
    if eta1.shape != (k,) or eta2.shape != (k,):
        raise ValueError(f"drop must hold two length-{k} gain vectors")
    if np.any(eta1 <= 0) or np.any(eta2 <= 0):
        raise ValueError("large-scale gains must be strictly positive")
    return eta1, eta2


def _fill_block(
    config: SystemConfig,
    lo: int,
    hi: int,
    drop: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw trials lo..hi-1 into new stacks; return (g1, g2, eta1, eta2).

    Each trial's stream gives, in order, the real and imaginary parts of the
    source-side fading, those of the destination-side fading (one fill of
    4 N K normals), then the large-scale draws of sample_large_scale unless
    `drop`, already validated, pins the gains.  The per-trial loop makes
    only these fills; the gain formula, the complex assembly and the
    sqrt(eta) scaling then run once over the block, with the bits of a
    trial-by-trial draw.  Stacks are (hi - lo, N, K), gains (hi - lo, K).
    """
    b, n, k = hi - lo, config.n_antennas, config.n_pairs
    # The normals die first, so they are allocated after the stacks and sit
    # above them on the heap; the other order raised the peak RSS of
    # N = 2048/8192 sweeps by 1.2-3.0 MB.
    g1, g2 = np.empty((b, n, k), dtype=complex), np.empty((b, n, k), dtype=complex)
    normals = np.empty((b, 4, n, k))
    # Area quantiles u and shadowing normals z, each (side, trial, pair),
    # so the gain formula reads contiguous arrays.
    u, z = np.empty((2, 2, b, k))
    for i, trial in enumerate(range(lo, hi)):
        rng = trial_rng(config.seed, trial)
        rng.standard_normal(out=normals[i])
        if drop is None:
            for side in range(2):
                rng.random(out=u[side, i])
                rng.standard_normal(out=z[side, i])
    if drop is None:
        eta1, eta2 = _gains(config, u, z)
    else:
        eta1, eta2 = (np.tile(eta, (b, 1)) for eta in drop)
    for g, hop, eta in zip((g1, g2), (normals[:, :2], normals[:, 2:]), (eta1, eta2)):
        _complex_normals(hop.swapaxes(0, 1), g)
        g *= np.sqrt(eta)[:, None]
    return g1, g2, eta1, eta2


def sample_realization(
    config: SystemConfig,
    trial: int,
    drop: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> ChannelRealization:
    """Generate the channel state for one trial.

    A pure function of (config.seed, trial): the one-trial block of the
    Monte-Carlo engine's draw (_fill_block), so the same bits as the
    engine's slice of that trial, in arrays no other call shares.  Fading
    is drawn before the large-scale gains, so passing an explicit `drop`
    pins the user placement without disturbing the fading draw; paired
    comparisons between processing variants stay aligned trial by trial.
    """
    if drop is not None:
        drop = _validated_drop(drop, config.n_pairs)
    g1, g2, eta1, eta2 = _fill_block(config, trial, trial + 1, drop)
    return ChannelRealization(eta1=eta1[0], eta2=eta2[0], g1=g1[0], g2=g2[0])
