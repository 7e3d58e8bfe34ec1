"""Closed-form large-array limits of the per-pair SINR and sum rate.

One law covers the three power-scaling regimes.  With both powers scaled
down with the array as E/N (case 1), pair k of the r active pairs has

    1/SINR_k = vR / ((pi/4) Eu eta1k c^2)
               + vD S21 / ((pi/4) Er eta1k^2 eta2k^2 c^2)
               + vR vD S11 / ((pi/4)^2 Eu Er eta1k^2 eta2k^2 c^4)

with S21 = sum_i eta1i^2 eta2i, S11 = sum_i eta1i eta2i, and quantized
phase stages entering through c = sinc(delta) = sin(delta)/delta.  Cases 2
and 3 are its one-sided limits: the side with fixed power has unbounded
energy, so every term that its energy divides drops out.  Case 2 (relay
power fixed) leaves SINR_k = (pi/4) Eu eta1k c^2 / vR, case 3 (source power
fixed) SINR_k = (pi/4) Er eta1k^2 eta2k^2 c^2 / (vD S21).  A zero energy
gives SINR 0.  Every rate, here and in the Monte-Carlo engine, sums its
SINRs through _sum_rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import _check_gains
from .hybrid import _check_int, _check_real

QUARTER_PI = math.pi / 4.0  # squared mean of the unit-power fading magnitude


def _sum_rates(sinrs: np.ndarray) -> np.ndarray:
    """Half-duplex sum rate 0.5 * sum_k log2(1 + SINR_k) of each SINR row."""
    return 0.5 * np.sum(np.log2(1.0 + sinrs), axis=-1)


@dataclass(frozen=True)
class AsymptoticInputs:
    """Everything the closed forms need, already in linear units.

    Energies e_user/e_relay are the fixed products N * p_user / N * p_relay
    of the scaled sides.  An absent energy (None) marks a side with fixed
    power: its energy is unbounded and its power drops out of the limit.
    Each law validates that the energies it needs are present.  r is the
    number of active pairs, min(rx chains, tx chains, pairs); delta is the
    phase quantization half-step in [0, pi/2], 0 for continuous phases.  A
    bad active gain or real input raises hybrid._check_real's ValueError.
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
        _check_int("r", self.r, 1, min(eta1.size, eta2.size))
        _check_gains(eta1[: self.r], eta2[: self.r])
        for name in ("var_relay_noise", "var_dest_noise"):
            _check_real(name, getattr(self, name), 0, above=True)
        for name in ("e_user", "e_relay"):
            if getattr(self, name) is not None:
                _check_real(name, getattr(self, name), 0)
        _check_real("delta", self.delta, 0)
        if self.delta > math.pi / 2:
            raise ValueError(f"delta must be at most pi/2, got {self.delta!r}")


def _limit_sinrs(inputs: AsymptoticInputs, *scaled: str) -> np.ndarray:
    """Limit SINRs of the r active pairs, from the module's law.

    `scaled` names the energies of the scaled sides ("e_user", "e_relay"),
    each of which must be given; the other side's energy is unbounded.
    """
    for name in scaled:
        if getattr(inputs, name) is None:
            raise ValueError(f"this power regime requires {name}")
    e_user = inputs.e_user if "e_user" in scaled else None
    e_relay = inputs.e_relay if "e_relay" in scaled else None
    e1, e2 = inputs.eta1[: inputs.r], inputs.eta2[: inputs.r]
    vr, vd = inputs.var_relay_noise, inputs.var_dest_noise
    gain = QUARTER_PI * float(np.sinc(inputs.delta / np.pi)) ** 2
    # A zero energy makes 1/SINR infinite, and a term that overflows has
    # reciprocal 0, its limit; a SINR beyond the float range is inf.  Only
    # inf / inf, 0 / 0 or 0 * inf make a NaN: those pairs take _log_sinrs.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hop1 = gain * e1                    # per unit Eu
        relayed = gain * e1 ** 2 * e2 ** 2  # per unit Er
        inverse = np.zeros(inputs.r)
        if e_user is not None:
            inverse += vr / (hop1 * e_user)
        if e_relay is not None:
            inverse += vd * np.sum(e1 ** 2 * e2) / (relayed * e_relay)
        if e_user is not None and e_relay is not None:
            inverse += vr * vd * np.sum(e1 * e2) / (gain * e_user * relayed * e_relay)
        sinrs = 1.0 / inverse
    lost = np.isnan(sinrs)
    if lost.any():
        sinrs[lost] = _log_sinrs(e1, e2, vr, vd, gain, e_user, e_relay)[lost]
    return sinrs


def _log_sinrs(
    e1: np.ndarray, e2: np.ndarray, vr: float, vd: float, gain: float,
    e_user: Optional[float], e_relay: Optional[float],
) -> np.ndarray:
    """_limit_sinrs's law with each term of 1/SINR formed as a logarithm.

    No product or ratio of the inputs is formed, so nothing leaves the
    float range before a term is known; a zero energy's log is -inf and
    makes its terms +inf, so its SINR is 0.  Exponentiating logs of a few
    hundred costs accuracy (up to about 3e-13 relative at gains of 1e160
    to 1e300), so only the pairs that the direct law leaves NaN take it.
    """
    with np.errstate(divide="ignore", over="ignore"):
        l1, l2, lgain = np.log(e1), np.log(e2), math.log(gain)
        terms = []
        if e_user is not None:
            terms.append(math.log(vr) - lgain - l1 - np.log(e_user))
        if e_relay is not None:
            relayed = lgain + 2 * l1 + 2 * l2 + np.log(e_relay)
            terms.append(math.log(vd) + np.logaddexp.reduce(2 * l1 + l2) - relayed)
        if e_user is not None and e_relay is not None:
            terms.append(math.log(vr) + math.log(vd) + np.logaddexp.reduce(l1 + l2)
                         - lgain - np.log(e_user) - relayed)
        return np.exp(-np.logaddexp.reduce(terms))


def sinr_case1(inputs: AsymptoticInputs, k: int) -> float:
    """Limit SINR of pair k when both powers scale as e/N (the module's law)."""
    _check_int("k", k, 0, inputs.r - 1)
    return float(_limit_sinrs(inputs, "e_user", "e_relay")[k])


def rate_case1(inputs: AsymptoticInputs) -> float:
    """Limit sum rate when both powers scale down with the array."""
    return float(_sum_rates(_limit_sinrs(inputs, "e_user", "e_relay")))


def rate_case2(inputs: AsymptoticInputs) -> float:
    """Limit sum rate with p_user = e_user / N and fixed relay power.

    The relay power drops out entirely, and e_relay is not read.
    """
    return float(_sum_rates(_limit_sinrs(inputs, "e_user")))


def rate_case3(inputs: AsymptoticInputs) -> float:
    """Limit sum rate with p_relay = e_relay / N and fixed source power.

    The source power drops out entirely, and e_user is not read.
    """
    return float(_sum_rates(_limit_sinrs(inputs, "e_relay")))
