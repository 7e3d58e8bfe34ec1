"""Shared fixtures and small helpers for the test suite."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from hybridrelay import hybrid, metrics, sample_small_scale
from hybridrelay.channel import ChannelRealization
from hybridrelay.config import SystemConfig


def fresh_serial_run(script: str, *args: str) -> str:
    """The stdout of `script` in a new interpreter on this checkout's src/.

    SIM_THREADS=1 and OPENBLAS_NUM_THREADS=1, so the run is serial.  Fault
    counts need a fresh process: the pool's allocator setting lasts for the
    rest of a process, so earlier tests have changed this one's.
    """
    env = dict(os.environ, SIM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=300).stdout


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_channels(rng, n, k, eta1=None, eta2=None):
    """Random realization with optional fixed large-scale gains."""
    h1 = sample_small_scale(n, k, rng)
    h2 = sample_small_scale(n, k, rng)
    e1 = np.ones(k) if eta1 is None else np.asarray(eta1, dtype=float)
    e2 = np.ones(k) if eta2 is None else np.asarray(eta2, dtype=float)
    return ChannelRealization(
        eta1=e1, eta2=e2, g1=h1 * np.sqrt(e1), g2=h2 * np.sqrt(e2)
    )


def make_processor(rng, n, k, quant_bits=None):
    """A random realization, its config, and the reference hybrid stage.

    F1 and F2 come from build_analog, alpha from oracles.alpha_reference.
    """
    cfg = SystemConfig(
        n_antennas=n, n_pairs=k, n_rx_chains=k, n_tx_chains=k, quant_bits=quant_bits
    )
    real = make_channels(rng, n, k)
    f1, f2 = oracles.analog_stages(real, cfg)
    alpha = oracles.alpha_reference(
        f1 @ real.g1, f2 @ real.g2, f1, f2,
        cfg.p_user, cfg.p_relay, cfg.var_relay_noise,
    )
    return real, cfg, SimpleNamespace(f1=f1, f2=f2, alpha=alpha)


def kernel_alpha(real, config, mode="hybrid"):
    """alpha of one realization from the package's one normalization.

    That is the alpha^2 of metrics._gram_sinrs on the two hops' Grams, as
    the engine forms it; NaN for a degenerate draw.
    """
    stages = oracles.analog_stages(real, config) if mode == "hybrid" else (None, None)
    hop1, hop2 = hybrid._hop_grams(real.g1, stages[0]), hybrid._hop_grams(real.g2, stages[1])
    alpha_sq, _ = metrics._gram_sinrs(hop1, hop2, config)
    return float(np.sqrt(alpha_sq))


def assert_same_bits(actual, expected):
    """Equal bit for bit, signed zeros and NaN payloads included."""
    actual = np.ascontiguousarray(actual)
    expected = np.ascontiguousarray(expected)
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))
