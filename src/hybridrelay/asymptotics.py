"""Closed-form large-array limits of the per-pair SINR and sum rate.

Three power-scaling regimes are covered: both sides scaled down with the
array (case 1), source power scaled with fixed relay power (case 2), and
relay power scaled with fixed source power (case 3).  Quantized phase
stages enter through powers of sinc(delta) = sin(delta)/delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

QUARTER_PI = math.pi / 4.0  # squared mean of the unit-power fading magnitude


@dataclass(frozen=True)
class AsymptoticInputs:
    """Everything the closed forms need, already in linear units.

    Energies e_user/e_relay are the fixed products N * p_user / N * p_relay
    of the scaled regimes; the fixed side's power drops out of every limit.
    Each law validates that the energies it needs are present.  r is the number of active pairs,
    min(rx chains, tx chains, pairs); delta is the phase quantization
    half-step, 0 for continuous phases.
    """

    eta1: np.ndarray
    eta2: np.ndarray
    r: int
    var_relay_noise: float = 1.0
    var_dest_noise: float = 1.0
    e_user: Optional[float] = None
    e_relay: Optional[float] = None
    delta: float = 0.0

    def __post_init__(self) -> None:
        eta1 = np.asarray(self.eta1, dtype=float)
        eta2 = np.asarray(self.eta2, dtype=float)
        object.__setattr__(self, "eta1", eta1)
        object.__setattr__(self, "eta2", eta2)
        if eta1.ndim != 1 or eta2.ndim != 1:
            raise ValueError("eta1 and eta2 must be 1-D gain vectors")
        if not 1 <= self.r <= min(eta1.size, eta2.size):
            raise ValueError("r must satisfy 1 <= r <= len(eta)")
        if np.any(eta1[: self.r] <= 0) or np.any(eta2[: self.r] <= 0):
            raise ValueError("active large-scale gains must be positive")
        if self.var_relay_noise <= 0 or self.var_dest_noise <= 0:
            raise ValueError("noise variances must be positive")
        if not 0.0 <= self.delta <= math.pi / 2:
            raise ValueError("delta must lie in [0, pi/2]")
        for name in ("e_user", "e_relay"):
            value = getattr(self, name)
            if value is not None and (value < 0 or not math.isfinite(value)):
                raise ValueError(f"{name} must be finite and non-negative")


def _sinc(delta: float) -> float:
    return float(np.sinc(delta / np.pi))


def _require(inputs: AsymptoticInputs, *names: str) -> list:
    values = []
    for name in names:
        value = getattr(inputs, name)
        if value is None:
            raise ValueError(f"this power regime requires {name}")
        values.append(value)
    return values


def _check_pair(inputs: AsymptoticInputs, k: int) -> None:
    if not 0 <= k < inputs.r:
        raise ValueError(f"pair index must be in [0, {inputs.r}), got {k}")


def _gain_sums(inputs: AsymptoticInputs) -> tuple:
    e1 = inputs.eta1[: inputs.r]
    e2 = inputs.eta2[: inputs.r]
    return float(np.sum(e1 ** 2 * e2)), float(np.sum(e1 * e2))


def sinr_case1(inputs: AsymptoticInputs, k: int) -> float:
    """Limit SINR of pair k when both powers scale as e/N.

    Numerator carries c^8, the two single-noise denominator terms c^6, and
    the noise-noise term c^4 (c = sinc(delta); all 1 when delta = 0):

        (pi/4)^2 Eu Er eta1k^2 eta2k^2 c^8
        -------------------------------------------------------------------
        (pi/4) Er vR eta1k eta2k^2 c^6 + (pi/4) Eu vD S21 c^6 + vR vD S11 c^4

    with S21 = sum_i eta1i^2 eta2i and S11 = sum_i eta1i eta2i over the r
    active pairs.
    """
    e_user, e_relay = _require(inputs, "e_user", "e_relay")
    _check_pair(inputs, k)
    c = _sinc(inputs.delta)
    s21, s11 = _gain_sums(inputs)
    e1, e2 = inputs.eta1[k], inputs.eta2[k]
    vr, vd = inputs.var_relay_noise, inputs.var_dest_noise
    num = QUARTER_PI ** 2 * e_user * e_relay * e1 ** 2 * e2 ** 2 * c ** 8
    den = (
        QUARTER_PI * e_relay * vr * e1 * e2 ** 2 * c ** 6
        + QUARTER_PI * e_user * vd * s21 * c ** 6
        + vr * vd * s11 * c ** 4
    )
    if num == 0.0:
        return 0.0
    return num / den


def rate_case1(inputs: AsymptoticInputs) -> float:
    """Limit sum rate when both powers scale down with the array."""
    total = sum(
        math.log2(1.0 + sinr_case1(inputs, k)) for k in range(inputs.r)
    )
    return 0.5 * total


def rate_case2(inputs: AsymptoticInputs) -> float:
    """Limit sum rate with p_user = e_user / N and fixed relay power.

    Per pair: 0.5 * log2(1 + (pi/4) Eu eta1k sinc^2(delta) / var_nR).
    The relay power drops out entirely.
    """
    (e_user,) = _require(inputs, "e_user")
    c2 = _sinc(inputs.delta) ** 2
    kernel = QUARTER_PI * e_user * inputs.eta1[: inputs.r] * c2
    return float(0.5 * np.sum(np.log2(1.0 + kernel / inputs.var_relay_noise)))


def rate_case3(inputs: AsymptoticInputs) -> float:
    """Limit sum rate with p_relay = e_relay / N and fixed source power.

    Per pair: 0.5 * log2(1 + (pi/4) Er eta1k^2 eta2k^2 sinc^2(delta)
                              / (var_nD * S21)).
    The source power drops out entirely.
    """
    (e_relay,) = _require(inputs, "e_relay")
    c2 = _sinc(inputs.delta) ** 2
    s21, _ = _gain_sums(inputs)
    e1 = inputs.eta1[: inputs.r]
    e2 = inputs.eta2[: inputs.r]
    kernel = QUARTER_PI * e_relay * e1 ** 2 * e2 ** 2 * c2
    return float(
        0.5 * np.sum(np.log2(1.0 + kernel / (inputs.var_dest_noise * s21)))
    )
