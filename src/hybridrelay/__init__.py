"""Rate analysis for multipair AF relaying with hybrid MRC/MRT processing.

Monte-Carlo spectral-efficiency estimates and sweeps over the array size,
closed-form large-array limits under three power-scaling regimes, and
convergence diagnostics for the analog beamforming stage.
"""

from .asymptotics import (
    AsymptoticInputs,
    rate_case1,
    rate_case2,
    rate_case3,
    sinr_case1,
)
from .channel import (
    ChannelRealization,
    canonical_drop,
    lemma_rng,
    sample_large_scale,
    sample_realization,
    sample_small_scale,
    trial_rng,
)
from .config import SystemConfig
from .hybrid import (
    DegenerateChannelError,
    QuantizationSpec,
    build_analog,
    quantize_phase,
    sinc_penalty,
)
from .metrics import (
    RatePoint,
    SweepSpec,
    monte_carlo_rate,
    monte_carlo_rates,
    run_sweep,
    sinrs,
)

__version__ = "0.1.0"

# Pinned by tests/test_api.py: adding or dropping a name is a deliberate change.
__all__ = [
    "AsymptoticInputs",
    "ChannelRealization",
    "DegenerateChannelError",
    "QuantizationSpec",
    "RatePoint",
    "SweepSpec",
    "SystemConfig",
    "build_analog",
    "canonical_drop",
    "lemma_rng",
    "monte_carlo_rate",
    "monte_carlo_rates",
    "quantize_phase",
    "rate_case1",
    "rate_case2",
    "rate_case3",
    "run_sweep",
    "sample_large_scale",
    "sample_realization",
    "sample_small_scale",
    "sinc_penalty",
    "sinr_case1",
    "sinrs",
    "trial_rng",
]
