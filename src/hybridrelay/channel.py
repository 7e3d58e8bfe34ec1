"""Two-hop channel generation: small-scale fading, user geometry, RNG streams.

Every trial draw and every lemma draw comes from a stream derived with
numpy's SeedSequence from (seed, purpose, index).  Streams are therefore
splittable: any trial can be generated on any worker, in any order, with
identical results.  The canonical fixed drop is the one draw outside this
scheme: it comes from constant entropy, independent of the seed.

trial_rng is the reference for a trial's stream.  The engine's block draw
(_fill_block) builds the same generators more cheaply: numpy's own
SeedSequence supplies the pool of the (seed, purpose) prefix once per
block, and the block finishes each trial's seed words from there
(_trial_rngs), so the streams, and every output, keep their bits.  Only
trials from 2**32 on, whose index takes two entropy words, are built by
trial_rng itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .config import SystemConfig
from .hybrid import _check_int, _check_real

# Purpose tags keep trial draws and diagnostic draws on disjoint
# substreams of the same seed.  A redrawn placement comes from its trial's
# own stream, so tag 1 is unused.
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
    """Independent generator for one Monte-Carlo trial of one seed.

    The reference for the trial streams: the engine's block draw builds
    the same generators through _trial_rngs.
    """
    return _stream(seed, _TRIAL_STREAM, "trial", trial)


def _stream(seed: int, purpose: int, name: str, index: int) -> np.random.Generator:
    """The generator of stream (seed, purpose, index); errors call index `name`."""
    _check_int("seed", seed, 0)
    _check_int(name, index, 0)
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(purpose, index))
    )


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx):
# hashmix step i of the entropy mix xors INIT_A * MULT_A**i into its word
# and multiplies by INIT_A * MULT_A**(i + 1), mix() combines two pool
# words, and the output words are hashed with INIT_B, MULT_B in the same way.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, step: int) -> Tuple[int, int]:
    """(xor, multiply) constants of hashmix step `step` of numpy's running hash."""
    const = init * pow(mult, step, 2**32) & _MASK32
    return const, const * mult & _MASK32


def _hash(value: int, xor: int, mult: int) -> int:
    """One hashmix step of numpy's SeedSequence, its constants given."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    """numpy's SeedSequence mix of two 32-bit words."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


# generate_state(4, np.uint64) hashes the pool words 0, 1, 2, 3, 0, ... into
# eight 32-bit words with these constants; the same for every stream.
_STATE_CONSTS = tuple(_hash_consts(_INIT_B, _MULT_B, i) for i in range(2 * _POOL_WORDS))


class _StateWords(ISeedSequence):
    """Four given uint64 words, handed to PCG64 as its seed sequence's state.

    np.random.PCG64(_StateWords(w)) runs PCG64's own seeding step on w, so
    it equals np.random.PCG64(s) for any seed sequence s whose
    generate_state(4, np.uint64) returns w.
    """

    def __init__(self, words: List[int]):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL_WORDS or dtype is not np.uint64:
            raise ValueError("only PCG64's four uint64 state words are held")
        return np.array(self.words, dtype=np.uint64)


def _trial_rngs(seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """trial_rng(seed, t) for t in lo..hi-1, each a new generator.

    SeedSequence(entropy=seed, spawn_key=(_TRIAL_STREAM, t)) mixes its
    entropy words into its pool in order, and t, for t < 2**32, is the
    last word.  numpy's own SeedSequence(seed, spawn_key=(_TRIAL_STREAM,))
    supplies the pool before t, once per block.  Each trial then takes
    four hashmix/mix steps and the eight output hashes of
    generate_state(4, np.uint64), in plain integers, and PCG64 seeds itself
    from those words.  Every block, a one-trial block too, takes this path;
    only trials from 2**32 on, whose index takes two words, go to trial_rng.
    """
    pool = np.random.SeedSequence(seed, spawn_key=(_TRIAL_STREAM,)).pool.tolist()
    # That mix took one hash step per pool word for each of its W entropy
    # words (the seed's 32-bit words, padded to the pool, then the stream
    # tag): 4 initial steps, 12 cross-mix steps, 4 per further word.
    n_words = max(_POOL_WORDS, -(-int(seed).bit_length() // 32)) + 1
    # Pool word i, t's hash constants into it, and those of the two output
    # words it feeds: i and i + _POOL_WORDS.
    steps = [(p, *_hash_consts(_INIT_A, _MULT_A, _POOL_WORDS * n_words + i),
              *_STATE_CONSTS[i], *_STATE_CONSTS[i + _POOL_WORDS])
             for i, p in enumerate(pool)]
    for trial in range(lo, hi):
        if not 0 <= trial <= _MASK32:
            yield trial_rng(seed, trial)
            continue
        low, high = [], []
        for p, x, m, x_low, m_low, x_high, m_high in steps:
            word = _mix(p, _hash(trial, x, m))
            low.append(_hash(word, x_low, m_low))
            high.append(_hash(word, x_high, m_high))
        # The eight 32-bit outputs, read as four little-endian uint64 words.
        state = [low[0] | low[1] << 32, low[2] | low[3] << 32,
                 high[0] | high[1] << 32, high[2] | high[3] << 32]
        yield np.random.Generator(np.random.PCG64(_StateWords(state)))


def lemma_rng(seed: int, n: int) -> np.random.Generator:
    """Generator for the convergence diagnostics at array size n."""
    return _stream(seed, _LEMMA_STREAM, "n", n)


# numpy's complex division by sqrt(2) multiplies by this reciprocal.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _complex_normals(
    parts: np.ndarray, out: np.ndarray, scale: Optional[np.ndarray] = None
) -> np.ndarray:
    """Write (parts[0] + 1j * parts[1]) / sqrt(2), times `scale`, into `out`.

    Two passes over each real view of `out`: np.multiply by 1/sqrt(2), then
    *= scale when given.  These are the bits of the complex expression
    (with a real `scale`): numpy's complex-by-real division and product
    compute each part as that part times the real factor, plus or minus
    the other part times zero.  That added zero can flip the sign of an
    exactly-zero part in the complex form; here it keeps its sign.
    """
    for part, view in zip(parts, (out.real, out.imag)):
        np.multiply(part, _INV_SQRT2, out=view)
        if scale is not None:
            view *= scale
    return out


def sample_small_scale(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """n x k matrix of i.i.d. circularly-symmetric unit-variance entries.

    Real parts are drawn first, then imaginary parts, so the layout of the
    stream is part of the reproducibility contract.
    """
    _check_int("n", n, 1)
    _check_int("k", k, 1)
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
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN gain: degenerate
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
    _check_gains(eta1, eta2)
    return eta1, eta2


def _check_gains(eta1: np.ndarray, eta2: np.ndarray) -> None:
    """The gain rule: every entry of eta1 and eta2 finite and above 0."""
    for side, eta in enumerate((eta1, eta2), 1):
        bad = np.flatnonzero(~(np.isfinite(eta) & (eta > 0)))
        if bad.size:
            _check_real(f"eta{side}[{bad[0]}]", float(eta[bad[0]]), 0, above=True)


def _fill_block(
    config: SystemConfig,
    lo: int,
    hi: int,
    drop: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw trials lo..hi-1 into new stacks; return (g1, g2, eta1, eta2).

    Each trial's stream (trial_rng's, built by _trial_rngs from the block's
    one SeedSequence pool) gives, in order, the real and imaginary
    parts of the source-side fading, those of the destination-side fading
    (one fill of 4 N K normals), then the large-scale draws of
    sample_large_scale unless `drop`, already validated, pins the gains.
    The per-trial loop makes only these fills; the gain formula and the
    complex assembly with its sqrt(eta) scaling (_complex_normals, two real
    passes per part) then run once over the block, with the bits of a
    trial-by-trial draw, up to the sign of an exactly-zero part.  Stacks
    are (hi - lo, N, K), gains (hi - lo, K), in arrays no other call shares.
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
    for i, rng in enumerate(_trial_rngs(config.seed, lo, hi)):
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
        _complex_normals(hop.swapaxes(0, 1), g, np.sqrt(eta)[:, None])
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
    _check_int("trial", trial, 0)
    if drop is not None:
        drop = _validated_drop(drop, config.n_pairs)
    g1, g2, eta1, eta2 = _fill_block(config, trial, trial + 1, drop)
    return ChannelRealization(eta1=eta1[0], eta2=eta2[0], g1=g1[0], g2=g2[0])
