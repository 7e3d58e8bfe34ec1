"""Rate analysis for multipair AF relaying with hybrid MRC/MRT processing.

Monte-Carlo spectral-efficiency estimates, closed-form large-array limits
under three power-scaling regimes, and convergence diagnostics for the
analog beamforming stage.
"""

from .asymptotics import (
    AsymptoticInputs,
    rate_case1,
    rate_case2,
    rate_case3,
    sinr_asymptotic_finite_n,
    sinr_case1,
)
from .channel import (
    ChannelRealization,
    canonical_drop,
    lemma_rng,
    pathloss,
    sample_large_scale,
    sample_realization,
    sample_small_scale,
    trial_rng,
)
from .config import SystemConfig
from .diagnostics import (
    ConvergenceReport,
    check_fh_convergence,
    check_orthonormality,
    convergence_sweep,
)
from .hybrid import (
    DegenerateChannelError,
    FullDigitalProcessor,
    HybridProcessor,
    QuantizationSpec,
    build_analog,
    build_full_digital,
    build_processor,
    compute_alpha,
    quantize_phase,
    sinc_penalty,
)
from .metrics import (
    RatePoint,
    monte_carlo_rate,
    monte_carlo_rates,
    rate_of_realization,
    sinr_exact,
    sinr_full_digital,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticInputs",
    "ChannelRealization",
    "ConvergenceReport",
    "DegenerateChannelError",
    "FullDigitalProcessor",
    "HybridProcessor",
    "QuantizationSpec",
    "RatePoint",
    "SystemConfig",
    "build_analog",
    "build_full_digital",
    "build_processor",
    "canonical_drop",
    "check_fh_convergence",
    "check_orthonormality",
    "compute_alpha",
    "convergence_sweep",
    "lemma_rng",
    "monte_carlo_rate",
    "monte_carlo_rates",
    "pathloss",
    "quantize_phase",
    "rate_case1",
    "rate_case2",
    "rate_case3",
    "rate_of_realization",
    "sample_large_scale",
    "sample_realization",
    "sample_small_scale",
    "sinc_penalty",
    "sinr_asymptotic_finite_n",
    "sinr_case1",
    "sinr_exact",
    "sinr_full_digital",
    "trial_rng",
]
