"""Relay processing: phase quantizer, phase-only analog stage, and the
K x K Gram kernel of the power normalization.

The digital MRC/MRT stage W = alpha (F2 G2)(F1 G1)^H is never formed: alpha
and every SINR (metrics._gram_sinrs) reduce to the Grams of the two hops.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np


class DegenerateChannelError(RuntimeError):
    """Raised when a draw's power normalization or SINRs are undefined."""


@dataclass(frozen=True)
class QuantizationSpec:
    """Uniform phase codebook with 2**bits codewords, spaced 2*pi/2**bits."""

    bits: int

    def __post_init__(self) -> None:
        # step divides by 2**bits, which leaves the float range at 1024.
        if not (isinstance(self.bits, numbers.Integral) and 1 <= self.bits <= 1023):
            raise ValueError("quant_bits must be a positive integer up to 1023")

    @property
    def step(self) -> float:
        """Half the codeword spacing: quantization error lies in [-step, step)."""
        return math.pi / 2 ** self.bits


def _codeword_index(
    phi: Union[float, np.ndarray], quant: QuantizationSpec
) -> Union[float, np.ndarray]:
    """Index (as a float) of the codeword nearest to phi; ties go to the higher one."""
    return np.floor(phi / (2.0 * quant.step) + 0.5)


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
    phase 0 where g[j, i] = 0.  No entry goes through exp, cos or sin:
    continuous phases give conj(g) / (|g| sqrt(N)), and with `quant` set
    the channel phase is snapped to the index of its nearest codeword
    (quantize_phase's rule) and the entry is read from a table of the 2**bits
    conjugate codewords.  `g` is N x K, or (..., N, K) for a stack of
    trials, and the result is n_chains x N, or (..., n_chains, N): the
    transposed view of an array built in g's own layout.  Only the
    first n_chains columns of g are used; requesting more chains than
    channel columns is an error because the remaining rows would have no
    channel to match.
    """
    g = np.asarray(g)
    n, k = g.shape[-2], g.shape[-1]
    if not 1 <= n_chains <= k:
        raise ValueError(
            f"n_chains must be in [1, {k}] for a channel with "
            f"{k} columns, got {n_chains}"
        )
    gs = g[..., :n_chains]
    if quant is not None:
        index = _codeword_index(np.angle(gs), quant)
        size = 2 ** quant.bits
        # angle() lies in [-pi, pi]; both branches wrap the index into [0, size).
        if size > index.size:  # a table larger than the stage itself
            index = np.mod(index, size)
            return np.swapaxes(_conj_codeword(index, quant, n), -1, -2)
        index = index.astype(np.intp) & (size - 1)
        return np.swapaxes(_conj_codeword(np.arange(size), quant, n)[index], -1, -2)
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


def _hop_grams(
    a: np.ndarray, f: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The two K x K Grams of one hop that alpha and every SINR reduce to.

    With a = F G the effective channel, A = a^H a and B = a^H (F F^H) a.
    The full-digital reference has no analog stage (f None, a = G), so
    B = A.  Accepts stacks (..., chains, K) and (..., chains, N); each
    trial's Grams depend on that trial's slices only.
    """
    ah = np.conj(np.swapaxes(a, -1, -2))
    gram = ah @ a
    if f is None:
        return gram, gram
    ffh = f @ np.swapaxes(np.conj(f), -1, -2)
    return gram, ah @ ffh @ a


def _alpha_squared(
    hop1: Tuple[np.ndarray, np.ndarray],
    hop2: Tuple[np.ndarray, np.ndarray],
    p_user: float,
    p_relay: float,
    var_relay_noise: float,
) -> np.ndarray:
    """Squared power normalization from the Grams of both hops.

        alpha^2 = p_relay / (p_user * tr(A1 B2 A1) + var_nR * tr(B2 B1))

    The two traces are ||F2^H a2 A1||_F^2 and ||F2^H a2 a1^H F1||_F^2, the
    signal and forwarded-noise power of the un-normalized relay map.  NaN
    marks a trial whose forwarded power is zero or non-finite.
    """
    (a1, b1), (a2, b2) = hop1, hop2
    signal = np.trace(a1 @ b2 @ a1, axis1=-2, axis2=-1).real
    noise = np.trace(b2 @ b1, axis1=-2, axis2=-1).real
    den = p_user * signal + var_relay_noise * noise
    ok = np.isfinite(den) & (den > 0.0)
    return np.where(ok, p_relay / np.where(ok, den, 1.0), np.nan)


def sinc_penalty(quant: Optional[QuantizationSpec]) -> float:
    """Beamforming-gain penalty sin(step)/step of a quantized phase stage.

    Tends to 1 as bits grow; None (continuous phases) gives exactly 1.
    """
    if quant is None:
        return 1.0
    return float(np.sinc(quant.step / np.pi))
