"""Relay processing: phase quantizer, phase-only analog stage, and the
products over N that the K x K Gram kernel reads.

The digital MRC/MRT stage W = alpha (F2 G2)(F1 G1)^H is never formed: alpha
and every SINR reduce to each hop's Grams (_hop_grams; full digital is the
hop without an analog stage, F = I), which metrics._gram_sinrs, the one
K x K kernel, reads; its docstring gives the identities and the product
counts.  Every product over N is formed here: F G by _dot, G^H G and F F^H
by _gram (BLAS syrk if large).
Precision is set here too: build_analog and _gram read complex128.  The
channel phase is computed here only (_phase), once for every quantized
stage of a draw (_analog_stages).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np


# An N x k slice of more than this many entries is large: _gram takes its
# real view, and the engine (metrics._block_trials) gives each trial of such
# slices a block of its own.
_LARGE_SLICE = 2 ** 14


class DegenerateChannelError(RuntimeError):
    """Raised when a draw's power normalization or SINRs are undefined."""


def _check_int(name: str, value, lo: int, hi: Optional[int] = None) -> None:
    """The rule of every count, index, seed and bit number.

    `value` must be an integral, not a bool, in [lo, hi] (no upper bound
    when hi is None); otherwise ValueError names `name`, states the rule
    and shows the value.
    """
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return
    rule = {0: "a non-negative integer", 1: "a positive integer"}.get(
        lo, f"an integer of at least {lo}")
    if hi is not None:
        rule += f" up to {hi}"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _check_real(name: str, value, lo: Optional[float] = None, above: bool = False) -> None:
    """The rule of every real setting: finite, not a bool, at least lo (above it if `above`)."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (lo is None or (value > lo if above else value >= lo))):
        return
    bound = "" if lo is None else f" {'above' if above else 'of at least'} {lo}"
    raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


@dataclass(frozen=True)
class QuantizationSpec:
    """Uniform phase codebook with 2**bits codewords, spaced 2*pi/2**bits."""

    bits: int

    def __post_init__(self) -> None:
        # step divides by 2**bits, which leaves the float range at 1024.
        _check_int("quant_bits", self.bits, 1, 1023)

    @property
    def step(self) -> float:
        """Half the codeword spacing: quantization error lies in [-step, step)."""
        return math.pi / 2 ** self.bits


def _codeword_index(
    phi: Union[float, np.ndarray],
    quant: QuantizationSpec,
    out: Optional[np.ndarray] = None,
) -> Union[float, np.ndarray]:
    """Index (as a float) of the codeword nearest to phi; ties go to the higher one.

    The index is built in the array that the divide makes, or in `out`
    when given, which may be phi itself: there is no temporary beyond the
    result, and phi is left unchanged unless it is `out`.
    """
    index = np.divide(phi, 2.0 * quant.step, out=out)
    index += 0.5
    if isinstance(index, np.ndarray):
        return np.floor(index, out=index)
    return np.floor(index)


def quantize_phase(
    phi: Union[float, np.ndarray], quant: QuantizationSpec
) -> Union[float, np.ndarray]:
    """Snap a phase in radians to the nearest codeword of the uniform codebook.

    The input is reduced modulo 2*pi first.  A value exactly midway between
    two codewords snaps to the higher one, so the circular error
    (reduced phase - result) always lies in [-step, +step).  The returned
    codeword may equal 2*pi, which is the zero codeword expressed without
    wrapping past the input.
    """
    reduced = np.mod(phi, 2.0 * np.pi)
    return _codeword_index(reduced, quant) * (2.0 * quant.step)


def _conj_codeword(index: np.ndarray, quant: QuantizationSpec, n: int) -> np.ndarray:
    return np.exp(-2j * quant.step * index) / math.sqrt(n)


def build_analog(
    g: np.ndarray, n_chains: int, quant: Optional[QuantizationSpec] = None
) -> np.ndarray:
    """Phase-matched analog beamformer for a channel matrix or a stack of them.

    Row i conjugate-matches the phases of channel column i at constant
    amplitude: entry (i, j) is exp(-1j * angle(g[j, i])) / sqrt(N), with
    phase 0 where g[j, i] = 0.  Continuous phases give conj(g) / (|g| sqrt(N)),
    with no exp, cos or sin.  With `quant` set the channel phase is snapped
    to the index of its nearest codeword (quantize_phase's rule).  The entry
    is then read from a table of the 2**bits conjugate codewords, unless the
    table would hold more entries than the stage: then each entry is
    computed directly as exp(-2j * step * index) / sqrt(N), the table's
    bits.  A non-finite channel entry gives a NaN stage entry, with or
    without `quant`, and no warning.  `g` is N x K, or (..., N, K) for a
    stack of trials, and the result is n_chains x N, or (..., n_chains, N):
    the transposed view of an array built in g's own layout.  Only the
    first n_chains columns of g are used; requesting more chains than
    channel columns is an error because the remaining rows would have no
    channel to match.  The stage is complex128 whatever g's dtype: g is
    read as its complex128 cast.  This is the one-resolution call of
    _analog_stages, through which the engine and the lemma table build
    every stage of a draw.
    """
    g = np.asarray(g, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf * 0, a NaN phase's index cast
        stage = next(_analog_stages(g, n_chains, (quant,)))
    if quant is not None:  # angle(inf) is finite, so the codeword is overwritten
        stage[~np.isfinite(np.swapaxes(g[..., :n_chains], -1, -2))] = np.nan
    return stage


def _phase(gs: np.ndarray) -> np.ndarray:
    """np.angle of a complex128 array, as a new float64 array."""
    return np.arctan2(gs.imag, gs.real)


def _analog_stages(
    g: np.ndarray, n_chains: int, quants: Sequence[Optional[QuantizationSpec]]
) -> Iterator[np.ndarray]:
    """Yield build_analog(g, n_chains, quant) for each quant of quants, in order.

    The stages of one draw at several resolutions share one channel phase:
    _phase of the first n_chains columns runs at most once, at the first
    quantized stage, and never when none is quantized.  It is kept while a
    later quantized stage still needs it (one float64 array of the stage's
    size); the last quantized stage builds its codeword index in place on
    it, earlier ones in a new array, so a single quantized stage costs what
    it costs alone.  A generator: the checks run at the first request, and
    each stage when it is asked for.  It holds no stage it has yielded, so a
    caller that frees each stage before asking for the next (by passing
    next() as an argument) holds one stage at a time.  Only build_analog marks
    a non-finite entry's stage NaN: the engine's row is NaN through alpha.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2:
        raise ValueError(f"g must be N x K or a stack of them, got shape {g.shape}")
    n, k = g.shape[-2], g.shape[-1]
    _check_int("n_chains", n_chains, 1, k)
    gs = g[..., :n_chains]
    last = max((i for i, quant in enumerate(quants) if quant is not None), default=-1)
    phase = None
    for i, quant in enumerate(quants):
        if quant is None:
            yield _continuous_stage(gs, n)
            continue
        if phase is None:
            phase = _phase(gs)
        if i < last:
            index = _codeword_index(phase, quant)
        else:
            index, phase = _codeword_index(phase, quant, out=phase), None
        size = 2 ** quant.bits
        # angle() lies in [-pi, pi]; both branches wrap the index into [0, size).
        if size > index.size:  # a table larger than the stage
            stage = _conj_codeword(np.mod(index, size, out=index), quant, n)
        else:
            index = index.astype(np.intp)  # frees the float index before the lookup
            index &= size - 1
            stage = _conj_codeword(np.arange(size), quant, n)[index]
        del index
        yield np.swapaxes(stage, -1, -2)
        del stage  # freed once the caller drops it, before the next is built


def _continuous_stage(gs: np.ndarray, n: int) -> np.ndarray:
    """Continuous stage of channel columns gs: conj(gs) / (|gs| sqrt(n)), transposed."""
    mag = np.abs(gs)
    # A zero or NaN minimum: phase 0 where g = 0, as angle(0) gives.
    if not mag.min(initial=math.inf) > 0.0:
        dead = mag == 0.0
        gs = np.where(dead, 1.0, gs)
        mag = np.where(dead, 1.0, mag)
    mag *= math.sqrt(n)
    # a * (1 / c) is how numpy divides a complex a by a real c, bit for bit.
    f = np.conj(gs)
    f *= np.reciprocal(mag, out=mag)
    return np.swapaxes(f, -1, -2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, bit for bit, for stacks (B, m, n) and (B, n, p) or 2-D a, b.

    np.matmul holds the GIL for its whole call, while np.dot releases it
    while BLAS runs, so pool workers (metrics._pool_map) can overlap their
    products only in np.dot.  A 2-D pair (one lemma draw) and a one-slice
    stack therefore go through np.dot; a longer stack, whose single @ call
    beats a Python loop over its slices, goes through @.  The engine's
    blocks are one trial exactly when a trial's N x K slice is large
    (N K > _LARGE_SLICE = 16384, N >= 1639 at K = 10).
    Measured on 2 cores with one BLAS thread, two threads each repeating
    (1, 10, N) @ (1, N, 10) ran 1.40x (N = 2048) and 1.58x (N = 8192)
    faster through np.dot; one thread took 0.94-0.99x the time of @.  Used
    for the products whose inner dimension is N: F G, F H, and the Grams
    of _gram, complex or, on a large slice, real.
    """
    if a.ndim == 2:
        return np.dot(a, b)
    if len(a) == 1:
        return np.dot(a[0], b[0])[None]
    return a @ b


def _gram(x: np.ndarray, conj: bool = False) -> np.ndarray:
    """x^H x of an N x k slice or a stack (..., N, k); its conjugate if conj.

    F F^H is the conjugate Gram of F^T.  A slice of at most _LARGE_SLICE
    entries takes the complex product of an N x k conjugate copy through
    _dot.  A larger one is read as its real view R, N x 2k, whose columns
    interleave U = Re x and V = Im x: _dot(R^T, R) is a matrix times its
    own transpose, which numpy sends to BLAS syrk with the GIL released, at
    half the flops of the complex product and with no conjugate copy.  Then
    re = U^T U + V^T V and im = U^T V - V^T U.  syrk fills one triangle and
    numpy mirrors it, so the result is exactly Hermitian with an exactly
    real diagonal.  The path depends on a slice's shape only, never on the
    stack's length, so a trial keeps its bits in any stack.  A large strided
    x, such as a caller's realization, is copied to a contiguous array first.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[-2] * x.shape[-1] <= _LARGE_SLICE:
        xt = np.swapaxes(x, -1, -2)
        return _dot(xt, np.conj(x)) if conj else _dot(np.conj(xt), x)
    r = np.ascontiguousarray(x).view(np.float64)
    p = _dot(np.swapaxes(r, -1, -2), r)
    uv, vu = p[..., 0::2, 1::2], p[..., 1::2, 0::2]
    im = vu - uv if conj else uv - vu
    re = p[..., 0::2, 0::2] + p[..., 1::2, 1::2]
    return np.stack((re, im), axis=-1).view(complex)[..., 0]


def _hop_grams(
    g: np.ndarray, f: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The K x K Grams (A, B) of one hop that alpha and every SINR reduce to.

    With a = F G the effective channel, A = a^H a and B = a^H (F F^H) a.
    Full digital is the hop without an analog stage (f None, F = I), which
    has no B: it gives (G^H G, None), and metrics._gram_sinrs reads A for
    B.  Accepts stacks (..., N, K) and (..., chains, N); each trial's Grams
    depend on that trial's slices only.  F G comes from _dot, and the Grams
    over N, G^H G and F F^H, from _gram.
    """
    if f is None:
        return _gram(g), None
    a = _dot(f, g)
    ah = np.conj(np.swapaxes(a, -1, -2))
    return ah @ a, ah @ _gram(np.swapaxes(f, -1, -2), conj=True) @ a


def sinc_penalty(quant: Optional[QuantizationSpec]) -> float:
    """Beamforming-gain penalty sin(step)/step of a quantized phase stage.

    Tends to 1 as bits grow; None (continuous phases) gives exactly 1.
    """
    if quant is None:
        return 1.0
    return float(np.sinc(quant.step / np.pi))
