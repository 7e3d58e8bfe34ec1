"""The package's public names: a name is added or dropped on purpose."""

import hybridrelay

# perfbench/checks.py calls AsymptoticInputs, SystemConfig, canonical_drop,
# monte_carlo_rate and rate_case2.
PUBLIC = [
    "AsymptoticInputs",
    "ChannelRealization",
    "DegenerateChannelError",
    "QuantizationSpec",
    "RatePoint",
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
    "sample_large_scale",
    "sample_realization",
    "sample_small_scale",
    "sinc_penalty",
    "sinr_case1",
    "sinrs",
    "trial_rng",
]


def test_public_names_are_pinned():
    assert sorted(hybridrelay.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(hybridrelay, name), name
