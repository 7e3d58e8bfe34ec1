"""Scenario configuration shared by every stage of the simulator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .hybrid import QuantizationSpec, _check_int, _check_real


@dataclass(frozen=True)
class SystemConfig:
    """All parameters of one relaying scenario.

    Powers and noise variances are finite linear quantities. dB values live
    in a SweepSpec, whose cells run_sweep converts; none is stored here.
    A bad real setting raises hybrid._check_real's ValueError; the cell
    radius must exceed the guard radius and have a finite square.
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
        if self.quant_bits is not None:
            QuantizationSpec(self.quant_bits)
        for name in ("p_user", "p_relay", "pathloss_exp", "shadow_std_db"):
            _check_real(name, getattr(self, name), 0)
        for name in ("var_relay_noise", "var_dest_noise", "guard_radius_m"):
            _check_real(name, getattr(self, name), 0, above=True)
        _check_real("cell_radius_m", self.cell_radius_m, self.guard_radius_m, above=True)
        if not math.isfinite(float(self.cell_radius_m) * self.cell_radius_m):  # _gains squares it
            raise ValueError("cell_radius_m must be a finite number whose square is "
                             f"finite, got {self.cell_radius_m!r}")
