"""Scenario configuration shared by every stage of the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .hybrid import QuantizationSpec, _check_int


@dataclass(frozen=True)
class SystemConfig:
    """All parameters of one relaying scenario.

    Powers and noise variances are finite linear quantities. dB values live
    in a SweepSpec, whose cells run_sweep converts; none is stored here.
    """

    n_antennas: int                   # relay antennas per array (N)
    n_pairs: int = 10                 # source/destination pairs (K)
    n_rx_chains: int = 10             # receive RF chains (K_r)
    n_tx_chains: int = 10             # transmit RF chains (K_t)
    p_user: float = 1.0               # per-source transmit power
    p_relay: float = 1.0              # relay transmit power budget
    var_relay_noise: float = 1.0      # noise variance at the relay array
    var_dest_noise: float = 1.0       # noise variance at each destination
    quant_bits: Optional[int] = None  # phase-shifter bits; None = continuous
    cell_radius_m: float = 1000.0
    guard_radius_m: float = 100.0
    pathloss_exp: float = 3.8
    shadow_std_db: float = 8.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, lo in (("n_antennas", 1), ("n_pairs", 1), ("n_rx_chains", 1),
                         ("n_tx_chains", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), lo)
        # Chain i of either side matches the phases of pair i's channel, so
        # a chain without a pair has nothing to match.
        for name in ("n_rx_chains", "n_tx_chains"):
            if getattr(self, name) > min(self.n_pairs, self.n_antennas):
                raise ValueError(
                    f"{name} must satisfy 1 <= {name} <= min(n_pairs, n_antennas)"
                )
        if self.p_user < 0 or self.p_relay < 0:
            raise ValueError("transmit powers must be non-negative")
        if self.var_relay_noise <= 0 or self.var_dest_noise <= 0:
            raise ValueError("noise variances must be positive")
        if self.quant_bits is not None:
            QuantizationSpec(self.quant_bits)
        if not 0 < self.guard_radius_m < self.cell_radius_m:
            raise ValueError("require 0 < guard_radius_m < cell_radius_m")
        if self.pathloss_exp < 0:
            raise ValueError("pathloss_exp must be non-negative")
        if self.shadow_std_db < 0:
            raise ValueError("shadow_std_db must be non-negative")
        for name in ("p_user", "p_relay", "var_relay_noise", "var_dest_noise",
                     "cell_radius_m", "guard_radius_m", "pathloss_exp", "shadow_std_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
