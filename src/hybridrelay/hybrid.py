"""Relay processing: phase-only analog beamformers, digital MRC/MRT stage,
power normalization, and the quantized-phase variants of all three."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .channel import ChannelRealization
from .config import SystemConfig


class DegenerateChannelError(RuntimeError):
    """Raised when a draw's power normalization or SINRs are undefined."""


@dataclass(frozen=True)
class QuantizationSpec:
    """Uniform phase codebook with 2**bits codewords, spaced 2*pi/2**bits."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("bits must be a positive integer")

    @property
    def step(self) -> float:
        """Half the codeword spacing: quantization error lies in [-step, step)."""
        return math.pi / 2 ** self.bits


@dataclass(frozen=True)
class HybridProcessor:
    """Analog stages and power normalization for one channel realization.

    The digital stage is W = alpha * (F2 G2)(F1 G1)^H; it follows from these
    fields and the realization, so it is not stored.
    """

    f1: np.ndarray  # K_r x N analog combiner, constant magnitude 1/sqrt(N)
    f2: np.ndarray  # K_t x N analog precoder, constant magnitude 1/sqrt(N)
    alpha: float    # power normalization scalar


@dataclass(frozen=True)
class FullDigitalProcessor:
    """Power normalization of the full-digital MRC/MRT matrix alpha * G2 G1^H.

    The N x N matrix itself is never materialized; its factors are the
    realization's channels.
    """

    alpha: float


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
    trials, and the result is n_chains x N, or (..., n_chains, N).  Only the
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
    gt = np.swapaxes(g[..., :n_chains], -1, -2)
    if quant is not None:
        index = _codeword_index(np.angle(gt), quant)
        size = 2 ** quant.bits
        if size > index.size:  # a table larger than the stage itself
            return _conj_codeword(index, quant, n)
        # angle() lies in [-pi, pi]; negative indices wrap through the mask.
        index = index.astype(np.intp) & (size - 1)
        return _conj_codeword(np.arange(size), quant, n)[index]
    mag = np.abs(gt)
    dead = mag == 0.0
    if dead.any():  # phase 0, as angle(0) gives
        gt = np.where(dead, 1.0, gt)
        mag = np.where(dead, 1.0, mag)
    mag *= math.sqrt(n)
    f = np.conj(gt, out=np.empty(gt.shape, dtype=complex))
    f /= mag
    return f


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


def compute_alpha(
    a1: np.ndarray,
    a2: np.ndarray,
    f1: Optional[np.ndarray],
    f2: Optional[np.ndarray],
    p_user: float,
    p_relay: float,
    var_relay_noise: float,
) -> float:
    """Normalization making the average relay transmit power equal p_relay.

        alpha = sqrt(p_relay / (p_user * ||F2^H A2 A1^H A1||_F^2
                                + var_nR * ||F2^H A2 A1^H F1||_F^2))

    Both norms are evaluated through the hops' K x K Grams (_hop_grams), so
    no N x N or N x K product is formed.  With f1 = f2 = None there is no
    analog stage and a1, a2 are the channels themselves (full digital).
    """
    alpha_sq = float(_alpha_squared(
        _hop_grams(a1, f1), _hop_grams(a2, f2), p_user, p_relay, var_relay_noise
    ))
    if math.isnan(alpha_sq):
        raise DegenerateChannelError(
            "relay power normalization undefined: zero or non-finite "
            "forwarded power"
        )
    return math.sqrt(alpha_sq)


def build_processor(
    real: ChannelRealization, config: SystemConfig
) -> HybridProcessor:
    """Assemble the full hybrid processing chain for one realization.

    The quantized path is taken iff config.quant_bits is set; alpha is
    recomputed per realization (instantaneous power constraint).
    """
    quant = (
        QuantizationSpec(config.quant_bits)
        if config.quant_bits is not None
        else None
    )
    f1 = build_analog(real.g1, config.n_rx_chains, quant)
    f2 = build_analog(real.g2, config.n_tx_chains, quant)
    alpha = compute_alpha(
        f1 @ real.g1, f2 @ real.g2, f1, f2,
        config.p_user, config.p_relay, config.var_relay_noise,
    )
    return HybridProcessor(f1=f1, f2=f2, alpha=alpha)


def build_full_digital(
    real: ChannelRealization, config: SystemConfig
) -> FullDigitalProcessor:
    """Reference processor with one RF chain per antenna and no analog stage.

        W_full = alpha_full * g2 @ g1^H
        alpha_full = sqrt(p_relay / (p_user * ||G2 G1^H G1||_F^2
                                     + var_nR * ||G2 G1^H||_F^2))

    The same Gram-form normalization as the hybrid chain, with a = G and
    no analog stage.
    """
    alpha = compute_alpha(
        real.g1, real.g2, None, None,
        config.p_user, config.p_relay, config.var_relay_noise,
    )
    return FullDigitalProcessor(alpha=alpha)


def sinc_penalty(quant: Optional[QuantizationSpec]) -> float:
    """Beamforming-gain penalty sin(step)/step of a quantized phase stage.

    Tends to 1 as bits grow; None (continuous phases) gives exactly 1.
    """
    if quant is None:
        return 1.0
    return float(np.sinc(quant.step / np.pi))
