"""SINR evaluation and the Monte-Carlo engine."""

from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import make_channels
from hybridrelay import (
    SystemConfig,
    build_full_digital,
    build_processor,
    monte_carlo_rate,
    rate_of_realization,
    sample_realization,
    sinr_exact,
    sinr_full_digital,
)
from hybridrelay import metrics
from hybridrelay.channel import ChannelRealization
from hybridrelay.metrics import _block_sinrs, _block_trials, _worker_count

SMALL = SystemConfig(
    n_antennas=8, n_pairs=3, n_rx_chains=3, n_tx_chains=3, seed=21
)
PINNED = (np.array([1.0, 4.0, 0.25]), np.array([2.0, 1.0, 0.5]))

# (config, mode, drop) of the block engine's oracle comparison.
ENGINE_CASES = {
    "continuous": (SMALL, "hybrid", None),
    "one-bit": (replace(SMALL, quant_bits=1), "hybrid", None),
    "two-bit": (replace(SMALL, quant_bits=2), "hybrid", None),
    "fewer-chains": (replace(SMALL, n_rx_chains=2, n_tx_chains=1), "hybrid", None),
    "full-digital-pinned": (SMALL, "full_digital", PINNED),
}


def trials_per_block(monkeypatch, config, trials):
    """Shrink the engine's block byte target to `trials` trials of config."""
    trial_bytes = 2 * config.n_antennas * config.n_pairs * 16
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", trials * trial_bytes)
    assert _block_trials(config) == trials


class TestSinr:
    @pytest.mark.parametrize("bits", [None, 2])
    def test_hybrid_matches_termwise_oracle(self, rng, bits):
        cfg = replace(SMALL, quant_bits=bits, p_user=1.7, var_relay_noise=0.8,
                      var_dest_noise=1.2)
        real = make_channels(rng, 8, 3, eta1=[1.0, 0.3, 2.0], eta2=[0.5, 1.0, 1.5])
        proc = build_processor(real, cfg)
        b = oracles.relay_matrix(proc)
        for k in range(3):
            expect = oracles.sinr_reference(b, real.g1, real.g2, k, 1.7, 0.8, 1.2)
            assert sinr_exact(real, proc, cfg, k) == pytest.approx(expect, rel=1e-12)

    def test_full_digital_matches_termwise_oracle(self, rng):
        cfg = replace(SMALL, p_user=0.6)
        real = make_channels(rng, 8, 3)
        proc = build_full_digital(real, cfg)
        b = oracles.relay_matrix_full(proc)
        for k in range(3):
            expect = oracles.sinr_reference(b, real.g1, real.g2, k, 0.6, 1.0, 1.0)
            assert sinr_full_digital(real, proc, cfg, k) == pytest.approx(
                expect, rel=1e-12
            )

    def test_pair_index_validated(self, rng):
        real = make_channels(rng, 8, 3)
        proc = build_processor(real, SMALL)
        with pytest.raises(ValueError, match="pair index"):
            sinr_exact(real, proc, SMALL, 3)
        with pytest.raises(ValueError, match="pair index"):
            sinr_exact(real, proc, SMALL, -1)

    def test_single_pair_sinr_increases_with_user_power(self):
        # With one pair there is no interference; pushing user power up
        # trades relay power away from noise forwarding, so SINR must rise
        # even though alpha shrinks.
        real = sample_realization(
            SystemConfig(n_antennas=16, n_pairs=1, n_rx_chains=1, n_tx_chains=1),
            trial=0,
        )
        vals = []
        for p in (0.5, 1.0, 2.0, 4.0, 8.0):
            cfg = SystemConfig(n_antennas=16, n_pairs=1, n_rx_chains=1,
                               n_tx_chains=1, p_user=p)
            vals.append(sinr_exact(real, build_processor(real, cfg), cfg, 0))
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_joint_power_rescaling_leaves_sinr_invariant(self, rng):
        # Multiplying all powers and noise variances by the same factor is a
        # pure change of units.
        real = make_channels(rng, 12, 4)
        base = SystemConfig(n_antennas=12, n_pairs=4, n_rx_chains=4,
                            n_tx_chains=4, p_user=1.5, p_relay=2.0,
                            var_relay_noise=0.8, var_dest_noise=1.1)
        s = 3.7
        scaled = replace(base, p_user=1.5 * s, p_relay=2.0 * s,
                         var_relay_noise=0.8 * s, var_dest_noise=1.1 * s)
        for k in range(4):
            a = sinr_exact(real, build_processor(real, base), base, k)
            b = sinr_exact(real, build_processor(real, scaled), scaled, k)
            assert b == pytest.approx(a, rel=1e-10)


class TestRateOfRealization:
    def test_frozen_value(self):
        # 0.5 * (log2(2) + log2(4)) = 1.5
        assert rate_of_realization(np.array([1.0, 3.0])) == 1.5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rate_of_realization(np.array([]))
        with pytest.raises(ValueError):
            rate_of_realization(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            rate_of_realization(np.array([1.0, -0.5]))


def _dead_realization(real):
    return ChannelRealization(
        h1=real.h1, h2=real.h2, eta1=real.eta1, eta2=real.eta2,
        g1=np.zeros_like(real.g1), g2=real.g2,
    )


class TestMonteCarlo:
    def test_matches_sequential_termwise_oracle(self):
        point = monte_carlo_rate(SMALL, 40)
        mean, se, sinrs = oracles.mc_reference(SMALL, 40)
        assert point.mean_rate == pytest.approx(mean, rel=1e-12)
        assert point.std_error == pytest.approx(se, rel=1e-12)
        np.testing.assert_allclose(point.per_pair_mean_sinr, sinrs, rtol=1e-12)
        assert point.n_trials == 40
        assert point.n_degenerate == 0

    def test_full_digital_mode_matches_oracle(self):
        point = monte_carlo_rate(SMALL, 25, mode="full_digital")
        mean, _, _ = oracles.mc_reference(SMALL, 25, mode="full_digital")
        assert point.mean_rate == pytest.approx(mean, rel=1e-12)

    def test_pinned_drop_reaches_every_trial(self):
        point = monte_carlo_rate(SMALL, 30, drop=PINNED)
        mean, _, _ = oracles.mc_reference(SMALL, 30, drop=PINNED)
        assert point.mean_rate == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("case", list(ENGINE_CASES))
    def test_blocks_match_sequential_oracle(self, monkeypatch, case):
        # Seven trials per block: 30 trials span five blocks, the last one
        # short, and the blocks go through the thread pool.
        config, mode, drop = ENGINE_CASES[case]
        trials_per_block(monkeypatch, config, 7)
        point = monte_carlo_rate(config, 30, mode, drop=drop, max_workers=3)
        mean, se, sinrs = oracles.mc_reference(config, 30, mode=mode, drop=drop)
        assert point.mean_rate == pytest.approx(mean, rel=1e-12)
        assert point.std_error == pytest.approx(se, rel=1e-12)
        np.testing.assert_allclose(point.per_pair_mean_sinr, sinrs, rtol=1e-12)
        assert point.n_trials == 30

    @pytest.mark.parametrize("mode,bits", [
        ("hybrid", None), ("hybrid", 2), ("full_digital", None),
    ])
    def test_trial_rows_bitwise_independent_of_blocking(self, monkeypatch, mode, bits):
        # A trial's SINR row must not depend on which block it was stacked
        # into, so results cannot move with the block size or worker count.
        config = SystemConfig(n_antennas=64, n_rx_chains=7, quant_bits=bits, seed=21)
        whole = _block_sinrs(config, 0, 12, mode, None)
        split = np.concatenate([
            _block_sinrs(config, lo, hi, mode, None)
            for lo, hi in ((0, 1), (1, 5), (5, 12))
        ])
        np.testing.assert_array_equal(whole, split)
        one_block = monte_carlo_rate(config, 12, mode)
        trials_per_block(monkeypatch, config, 5)
        three_blocks = monte_carlo_rate(config, 12, mode)
        assert one_block.mean_rate == three_blocks.mean_rate
        assert one_block.std_error == three_blocks.std_error
        np.testing.assert_array_equal(
            one_block.per_pair_mean_sinr, three_blocks.per_pair_mean_sinr
        )

    def test_worker_count_invariance_is_bitwise(self, monkeypatch):
        trials_per_block(monkeypatch, SMALL, 5)  # seven blocks for the pool
        a = monte_carlo_rate(SMALL, 32, max_workers=1)
        b = monte_carlo_rate(SMALL, 32, max_workers=5)
        assert a.mean_rate == b.mean_rate
        assert a.std_error == b.std_error
        np.testing.assert_array_equal(a.per_pair_mean_sinr, b.per_pair_mean_sinr)

    def test_sim_threads_env_caps_workers(self, monkeypatch):
        trials_per_block(monkeypatch, SMALL, 5)
        monkeypatch.setenv("SIM_THREADS", "3")
        a = monte_carlo_rate(SMALL, 32)
        monkeypatch.setenv("SIM_THREADS", "1")
        b = monte_carlo_rate(SMALL, 32)
        assert a.mean_rate == b.mean_rate

    def test_worker_count_clamping(self, monkeypatch):
        monkeypatch.delenv("SIM_THREADS", raising=False)
        assert _worker_count(100, 4) == 4
        assert _worker_count(2, 8) == 2
        monkeypatch.setenv("SIM_THREADS", "3")
        assert _worker_count(100, 8) == 3
        monkeypatch.setenv("SIM_THREADS", "not-a-number")
        assert _worker_count(100, 4) == 4

    def test_degenerate_trials_skipped_and_counted(self, monkeypatch):
        import hybridrelay.channel as channel_mod

        orig = channel_mod.sample_realization

        def mostly_alive(config, trial, drop=None):
            real = orig(config, trial, drop=drop)
            return _dead_realization(real) if trial == 7 else real

        monkeypatch.setattr(channel_mod, "sample_realization", mostly_alive)
        point = monte_carlo_rate(SMALL, 300)
        assert point.n_degenerate == 1
        assert point.n_trials == 299

    def test_too_many_degenerate_trials_abort(self, monkeypatch):
        import hybridrelay.channel as channel_mod

        orig = channel_mod.sample_realization

        def often_dead(config, trial, drop=None):
            real = orig(config, trial, drop=drop)
            return _dead_realization(real) if trial < 5 else real

        monkeypatch.setattr(channel_mod, "sample_realization", often_dead)
        with pytest.raises(RuntimeError, match="degenerate"):
            monte_carlo_rate(SMALL, 100)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            monte_carlo_rate(SMALL, 1)
        with pytest.raises(ValueError, match="mode"):
            monte_carlo_rate(SMALL, 10, mode="analog_only")
        with pytest.raises(ValueError, match="strictly positive"):
            monte_carlo_rate(SMALL, 10, drop=(np.zeros(3), np.ones(3)))
