"""SINR evaluation and the Monte-Carlo engine."""

import os
import platform
import re
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import assert_same_bits, fresh_serial_run, make_channels
from hybridrelay import (
    DegenerateChannelError,
    QuantizationSpec,
    SweepSpec,
    SystemConfig,
    build_analog,
    canonical_drop,
    monte_carlo_rate,
    monte_carlo_rates,
    run_sweep,
    sample_realization,
    sinrs,
)
from hybridrelay import channel, hybrid, metrics
from hybridrelay.channel import ChannelRealization
from hybridrelay.metrics import (
    _block_sinrs,
    _block_trials,
    _cell_powers,
    _pool_map,
    _worker_count,
)

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

# Shapes whose N x K slices exceed hybrid._LARGE_SLICE, and their variants.
LARGE_SLICES = (
    SystemConfig(n_antennas=2048, n_pairs=10, seed=5),
    SystemConfig(n_antennas=8192, n_pairs=3, n_rx_chains=2, n_tx_chains=1, seed=5),
)
LARGE_VARIANTS = [("hybrid", None), ("hybrid", 2), ("full_digital", None)]


def trials_per_block(monkeypatch, config, trials):
    """Shrink the engine's block byte target to `trials` trials of config."""
    trial_bytes = 2 * config.n_antennas * config.n_pairs * 16
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", trials * trial_bytes)
    assert _block_trials(config) == trials


def pool_workers(monkeypatch, workers):
    """Give the engine's pool `workers` threads, whatever the host's CPU count."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("SIM_THREADS", str(workers))


class TestSinr:
    @pytest.mark.parametrize("bits", [None, 2])
    def test_hybrid_matches_termwise_oracle(self, rng, bits):
        cfg = replace(SMALL, quant_bits=bits, p_user=1.7, var_relay_noise=0.8,
                      var_dest_noise=1.2)
        real = make_channels(rng, 8, 3, eta1=[1.0, 0.3, 2.0], eta2=[0.5, 1.0, 1.5])
        b = oracles.relay_matrix(real, cfg)
        got = sinrs(real, cfg)
        assert got.shape == (3,)
        for k in range(3):
            expect = oracles.sinr_reference(b, real.g1, real.g2, k, 1.7, 0.8, 1.2)
            assert got[k] == pytest.approx(expect, rel=1e-12)

    def test_full_digital_matches_termwise_oracle(self, rng):
        cfg = replace(SMALL, p_user=0.6)
        real = make_channels(rng, 8, 3)
        b = oracles.relay_matrix_full(real, cfg)
        got = sinrs(real, cfg, "full_digital")
        for k in range(3):
            expect = oracles.sinr_reference(b, real.g1, real.g2, k, 0.6, 1.0, 1.0)
            assert got[k] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("k_r,k_t", [(2, 4), (4, 3), (1, 2)])
    @pytest.mark.parametrize("mode,bits", [
        ("hybrid", None), ("hybrid", 2), ("full_digital", None),
    ])
    def test_fewer_chains_match_termwise_oracle(self, rng, k_r, k_t, mode, bits):
        # The relay-noise diagonal and alpha's traces read A and B as
        # Hermitian, which holds at any rank.
        cfg = SystemConfig(n_antennas=12, n_pairs=4, n_rx_chains=k_r, n_tx_chains=k_t,
                           quant_bits=bits, p_user=1.7, var_relay_noise=0.8,
                           var_dest_noise=1.2)
        real = make_channels(rng, 12, 4, eta1=[1.0, 0.3, 2.0, 0.7], eta2=[0.5, 1.0, 1.5, 2.5])
        b = (oracles.relay_matrix(real, cfg) if mode == "hybrid"
             else oracles.relay_matrix_full(real, cfg))
        got = sinrs(real, cfg, mode)
        for k in range(4):
            expect = oracles.sinr_reference(b, real.g1, real.g2, k, 1.7, 0.8, 1.2)
            assert got[k] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("n,k", [(16, 10), (256, 4), (2048, 3)])
    def test_full_digital_shortcut_equals_the_general_path(self, n, k):
        # Full digital's hop has no B, so alpha and the SINRs read
        # M = A2 A1 for B2 A1 and A2 B1; a copy of A as B takes the products.
        config = SystemConfig(n_antennas=n, n_pairs=k, n_rx_chains=k, n_tx_chains=k, seed=3)
        g1, g2, _, _ = channel._fill_block(config, 0, 6, None)
        hop1, hop2 = hybrid._hop_grams(g1), hybrid._hop_grams(g2)
        assert hop1[1] is None and hop2[1] is None
        copies = (hop1[0], hop1[0].copy()), (hop2[0], hop2[0].copy())
        results = [metrics._gram_sinrs(h1, h2, config) for h1, h2 in ((hop1, hop2), copies)]
        for shortcut, general in zip(*results):
            assert np.isfinite(shortcut).all()
            np.testing.assert_allclose(shortcut, general, rtol=1e-13)

    @pytest.mark.parametrize("mode", metrics.MODES)
    def test_degenerate_draw_raises(self, rng, mode):
        real = _dead_realization(make_channels(rng, 8, 3))
        with pytest.raises(DegenerateChannelError):
            sinrs(real, SMALL, mode)

    @pytest.mark.parametrize("mode", metrics.MODES)
    def test_overflowing_power_raises_degenerate(self, rng, mode):
        # At p_user = 1e308 the forwarded power overflows.  The draw is
        # degenerate, and under the suite's filterwarnings = error a numpy
        # overflow warning would raise in its place.
        real = make_channels(rng, 8, 3)
        with pytest.raises(DegenerateChannelError):
            sinrs(real, replace(SMALL, p_user=1e308), mode)

    @pytest.mark.parametrize("mode", metrics.MODES)
    @pytest.mark.parametrize("bits", [None, 2])
    @pytest.mark.parametrize("entry", [np.inf, complex(np.inf, np.inf), np.nan],
                             ids=["inf", "inf-inf-j", "nan"])
    def test_non_finite_channel_raises_without_a_warning(self, rng, mode, bits, entry):
        # Under the suite's filterwarnings = error, a numpy warning from the
        # analog stage or the Grams would raise in place of the documented
        # error.
        real = make_channels(rng, 8, 3)
        real.g1[2, 1] = entry
        with pytest.raises(DegenerateChannelError):
            sinrs(real, replace(SMALL, quant_bits=bits), mode)

    @pytest.mark.parametrize("mode,bits", [
        ("full_digital", None), ("hybrid", None), ("hybrid", 1), ("hybrid", 2),
    ])
    def test_negative_zero_entry_keeps_the_bits_of_positive_zero(self, rng, mode, bits):
        # The analog stage reads a zero entry of either sign as phase 0, so
        # the SINRs are the same bits; the 1- and 2-bit stages once matched
        # complex(-0.0, -0.0) with the codeword of phase pi.
        real = make_channels(rng, 8, 3)
        got = []
        for zero in (complex(0.0, 0.0), complex(-0.0, -0.0)):
            real.g1[2, 1] = real.g2[5, 0] = zero
            got.append(sinrs(real, replace(SMALL, quant_bits=bits), mode))
        assert_same_bits(got[1], got[0])

    def test_mode_validated(self, rng):
        with pytest.raises(ValueError, match="mode"):
            sinrs(make_channels(rng, 8, 3), SMALL, "analog_only")

    @pytest.mark.parametrize("config", [
        replace(SMALL, n_antennas=16), replace(SMALL, n_pairs=4),
    ], ids=["antennas", "pairs"])
    def test_realization_must_fit_config(self, rng, config):
        # Unchecked, a wrong N gives SINRs of the realization's own array
        # size, and a wrong K fails inside numpy's broadcasting.
        want = (config.n_antennas, config.n_pairs)
        message = f"channels are (8, 3) and (8, 3); the config needs {want}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sinrs(make_channels(rng, 8, 3), config)

    @pytest.mark.parametrize("config", [
        SMALL, replace(SMALL, quant_bits=2), replace(SMALL, quant_bits=6),
        replace(SMALL, n_rx_chains=2, n_tx_chains=1),
    ], ids=["continuous", "two-bit", "six-bit", "fewer-chains"])
    @pytest.mark.parametrize("mode", metrics.MODES)
    def test_equals_engine_row_bitwise(self, config, mode):
        # SMALL's 12 trials fit one block, so row t of the block is trial t.
        # At six bits one trial's stage (8 x 3 phases) is smaller than the
        # 64-entry codeword table, while the block's is larger.
        table = _block_sinrs(config, 0, 12, [(mode, config.quant_bits)], None)[0]
        for t in range(12):
            np.testing.assert_array_equal(
                sinrs(sample_realization(config, t), config, mode), table[t]
            )

    @pytest.mark.parametrize("config", LARGE_SLICES, ids=["2048x10", "8192x3-fewer-chains"])
    @pytest.mark.parametrize("mode,bits", LARGE_VARIANTS)
    def test_equals_engine_row_bitwise_on_large_slices(self, config, mode, bits):
        # Each trial is a block of its own, and G^H G takes the real-view
        # Gram.  At 8192 x 3 the 2- and 1-chain stages' F F^H keep the
        # complex product.
        config = replace(config, quant_bits=bits)
        assert _block_trials(config) == 1
        for t in range(2):
            row = _block_sinrs(config, t, t + 1, [(mode, bits)], None)[0, 0]
            assert_same_bits(sinrs(sample_realization(config, t), config, mode), row)

    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    @pytest.mark.parametrize("mode,bits", LARGE_VARIANTS)
    def test_channel_layout_keeps_the_bits_on_large_slices(self, layout, mode, bits):
        # The real view needs contiguous channels, so a strided or
        # Fortran-ordered one is copied first: the same values, the same bits.
        config = replace(LARGE_SLICES[0], quant_bits=bits)
        real = sample_realization(config, 3)

        def relaid(g):
            if layout == "fortran":
                return np.asfortranarray(g)
            wide = np.zeros((g.shape[0], 2 * g.shape[1]), dtype=complex)
            wide[:, ::2] = g
            return wide[:, ::2]

        other = ChannelRealization(real.eta1, real.eta2, relaid(real.g1), relaid(real.g2))
        assert not other.g1.flags.c_contiguous
        assert_same_bits(sinrs(other, config, mode), sinrs(real, config, mode))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64],
                             ids=["float64", "complex64"])
    @pytest.mark.parametrize("mode,bits", LARGE_VARIANTS)
    def test_large_slices_of_another_dtype_match_the_complex128_cast(self, dtype, mode, bits):
        # 2048 x 10 slices take the real-view Gram, which must not read a
        # float64 or complex64 channel as float64 pairs; 256 x 10 slices
        # take the complex product.  The stage and every Gram are
        # complex128 whatever the channel's dtype, so both give the cast's
        # bits.
        for n in (256, 2048):
            config = replace(LARGE_SLICES[0], n_antennas=n, quant_bits=bits)
            real = sample_realization(config, 3)
            g1, g2 = ((g.real if dtype is np.float64 else g).astype(dtype)
                      for g in (real.g1, real.g2))
            cast = ChannelRealization(real.eta1, real.eta2, g1.astype(complex),
                                      g2.astype(complex))
            got = sinrs(ChannelRealization(real.eta1, real.eta2, g1, g2), config, mode)
            assert_same_bits(got, sinrs(cast, config, mode))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
        perm=st.permutations(range(4)),
        mode=st.sampled_from(metrics.MODES),
        bits=st.sampled_from([None, 2]),
    )
    def test_pair_permutation_permutes_sinrs(self, seed, perm, mode, bits):
        # With one chain per pair on each side, pair labels carry no
        # meaning: relabelling the pairs of both hops together relabels the
        # SINRs and leaves alpha unchanged.
        cfg = SystemConfig(n_antennas=16, n_pairs=4, n_rx_chains=4,
                           n_tx_chains=4, quant_bits=bits)
        rng = np.random.default_rng(seed)
        real = make_channels(rng, 16, 4, eta1=rng.uniform(0.1, 3.0, 4),
                             eta2=rng.uniform(0.1, 3.0, 4))
        p = list(perm)
        relabelled = ChannelRealization(
            eta1=real.eta1[p], eta2=real.eta2[p], g1=real.g1[:, p], g2=real.g2[:, p],
        )
        np.testing.assert_allclose(
            sinrs(relabelled, cfg, mode), sinrs(real, cfg, mode)[p], rtol=1e-12
        )

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
            vals.append(sinrs(real, cfg)[0])
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
        np.testing.assert_allclose(sinrs(real, scaled), sinrs(real, base),
                                   rtol=1e-10)


class TestSumRate:
    def test_frozen_value(self):
        # 0.5 * (log2(2) + log2(4)) = 1.5
        assert metrics._sum_rates(np.array([1.0, 3.0])) == 1.5


def _dead_realization(real):
    return ChannelRealization(
        eta1=real.eta1, eta2=real.eta2, g1=np.zeros_like(real.g1), g2=real.g2,
    )


def _kill_trials(monkeypatch, dead):
    """Zero the source-side channel of every engine draw whose trial is dead."""
    orig = channel._fill_block

    def fill(config, lo, hi, drop):
        g1, g2, eta1, eta2 = orig(config, lo, hi, drop)
        for i, trial in enumerate(range(lo, hi)):
            if dead(trial):
                g1[i] = 0.0
        return g1, g2, eta1, eta2

    monkeypatch.setattr(channel, "_fill_block", fill)


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
        pool_workers(monkeypatch, 3)
        point = monte_carlo_rate(config, 30, mode, drop=drop)
        mean, se, sinrs = oracles.mc_reference(config, 30, mode=mode, drop=drop)
        assert point.mean_rate == pytest.approx(mean, rel=1e-12)
        assert point.std_error == pytest.approx(se, rel=1e-12)
        np.testing.assert_allclose(point.per_pair_mean_sinr, sinrs, rtol=1e-12)
        assert point.n_trials == 30

    @pytest.mark.parametrize("mode,bits", [
        ("hybrid", None), ("hybrid", 2), ("hybrid", 6), ("full_digital", None),
    ])
    def test_trial_rows_bitwise_independent_of_blocking(self, monkeypatch, mode, bits):
        # A trial's SINR row must not depend on which block it was stacked
        # into, so results cannot move with the block size or worker count.
        config = SystemConfig(n_antennas=64, n_rx_chains=7, quant_bits=bits, seed=21)
        whole = _block_sinrs(config, 0, 12, [(mode, bits)], None)
        split = np.concatenate([
            _block_sinrs(config, lo, hi, [(mode, bits)], None)
            for lo, hi in ((0, 1), (1, 5), (5, 12))
        ], axis=1)
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
        pool_workers(monkeypatch, 1)
        a = monte_carlo_rate(SMALL, 32)
        pool_workers(monkeypatch, 5)
        b = monte_carlo_rate(SMALL, 32)
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
        # min(CPU count, SIM_THREADS when set, number of blocks).
        monkeypatch.delenv("SIM_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(100) == 4
        assert _worker_count(2) == 2
        monkeypatch.setenv("SIM_THREADS", "3")
        assert _worker_count(100) == 3
        monkeypatch.setenv("SIM_THREADS", "8")
        assert _worker_count(100) == 4
        monkeypatch.setenv("SIM_THREADS", "")
        assert _worker_count(100) == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(100) == 1
        for bad in ("not-a-number", "0", "-1"):
            monkeypatch.setenv("SIM_THREADS", bad)
            with pytest.raises(ValueError, match="SIM_THREADS"):
                _worker_count(100)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pool_map_yields_in_job_order(self, monkeypatch, workers):
        # Early jobs sleep longest, so a pool finishes them out of order.
        pool_workers(monkeypatch, workers)

        def square(job):
            time.sleep(0.002 * (8 - job))
            return job * job

        assert list(_pool_map(square, range(8))) == [j * j for j in range(8)]

    def test_pool_map_runs_one_worker_inline(self, monkeypatch):
        caller = threading.get_ident()
        pool_workers(monkeypatch, 1)
        assert set(_pool_map(lambda _: threading.get_ident(), range(4))) == {caller}
        pool_workers(monkeypatch, 2)
        assert caller not in set(_pool_map(lambda _: threading.get_ident(), range(4)))

    def test_pool_map_checks_sim_threads_before_any_job(self, monkeypatch):
        ran = []
        monkeypatch.setenv("SIM_THREADS", "0")
        with pytest.raises(ValueError, match="SIM_THREADS"):
            _pool_map(ran.append, [1, 2])
        assert ran == []

    def test_degenerate_trials_skipped_and_counted(self, monkeypatch):
        _kill_trials(monkeypatch, lambda trial: trial == 7)
        point = monte_carlo_rate(SMALL, 300)
        assert point.n_degenerate == 1
        assert point.n_trials == 299

    def test_non_finite_sinr_in_any_column_is_degenerate(self, monkeypatch):
        # SMALL's 300 trials fit one block, so row 7 of the block is trial 7.
        sinrs = _block_sinrs(SMALL, 0, 300, [("hybrid", None)], None)[0]
        orig = metrics._gram_sinrs

        def inf_in_column_2(*args):
            alpha_sq, out = orig(*args)
            out[7, 2] = np.inf
            return alpha_sq, out

        monkeypatch.setattr(metrics, "_gram_sinrs", inf_in_column_2)
        point = monte_carlo_rate(SMALL, 300)
        assert point.n_degenerate == 1
        assert point.n_trials == 299
        kept = np.delete(sinrs, 7, axis=0)
        rates = 0.5 * np.sum(np.log2(1.0 + kept), axis=1)
        assert point.mean_rate == pytest.approx(rates.mean(), rel=1e-12)
        np.testing.assert_allclose(point.per_pair_mean_sinr, kept.mean(axis=0),
                                   rtol=1e-12)

    def test_too_many_degenerate_trials_abort(self, monkeypatch):
        _kill_trials(monkeypatch, lambda trial: trial < 5)
        with pytest.raises(RuntimeError, match="degenerate"):
            monte_carlo_rate(SMALL, 100)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            monte_carlo_rate(SMALL, 1)
        with pytest.raises(ValueError, match="mode"):
            monte_carlo_rate(SMALL, 10, mode="analog_only")
        for gain in (0.0, np.nan, np.inf):
            message = f"eta1[0] must be a finite number above 0, got {gain!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                monte_carlo_rate(SMALL, 10, drop=(np.full(3, gain), np.ones(3)))
        with pytest.raises(ValueError, match="variants"):
            monte_carlo_rates(SMALL, 10, [])
        with pytest.raises(ValueError, match="mode"):
            monte_carlo_rates(SMALL, 10, [("hybrid", None), ("analog_only", None)])
        with pytest.raises(ValueError, match="quant_bits"):
            monte_carlo_rates(SMALL, 10, [("hybrid", 0)])

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["p_user", "p_relay", "var_relay_noise",
                                       "var_dest_noise", "pathloss_exp",
                                       "shadow_std_db"])
    def test_non_finite_power_or_noise_rejected(self, field, value):
        # Such a scenario used to draw every trial and then fail as degenerate
        # (a geometry setting: or blame the gains it made).
        bound = "above 0" if field.startswith("var_") else "of at least 0"
        message = f"{field} must be a finite number {bound}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(SMALL, **{field: value})

    # The ids are those the earlier wordings gave these cases.
    @pytest.mark.parametrize("field,value,fragment", [
        ("n_antennas", 0, "n_antennas must be a positive integer"),
        pytest.param("p_user", -1.0, "p_user must be a finite number of at least 0, got -1.0",
                     id="p_user--1.0-transmit powers must be non-negative"),
        pytest.param("var_dest_noise", 0.0,
                     "var_dest_noise must be a finite number above 0, got 0.0",
                     id="var_dest_noise-0.0-noise variances must be positive"),
        pytest.param("guard_radius_m", 1000.0,
                     "cell_radius_m must be a finite number above 1000.0, got 1000.0",
                     id="guard_radius_m-1000.0-guard_radius_m < cell_radius_m"),
        pytest.param("cell_radius_m", float("inf"),
                     "cell_radius_m must be a finite number above 100.0, got inf",
                     id="cell_radius_m-inf-cell_radius_m must be finite"),
        pytest.param("pathloss_exp", -0.1,
                     "pathloss_exp must be a finite number of at least 0, got -0.1",
                     id="pathloss_exp--0.1-pathloss_exp must be non-negative"),
        pytest.param("shadow_std_db", -1.0,
                     "shadow_std_db must be a finite number of at least 0, got -1.0",
                     id="shadow_std_db--1.0-shadow_std_db must be non-negative"),
    ])
    def test_out_of_range_setting_rejected(self, field, value, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            replace(SMALL, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("n_antennas", 8.0), ("n_pairs", 3.0), ("n_rx_chains", 3.0),
        ("n_tx_chains", 3.0), ("seed", 1.5), ("n_antennas", True),
    ])
    def test_non_integral_count_rejected(self, field, value):
        # seed=1.5 used to pass and then fail at the first draw as a TypeError.
        rule = "a non-negative integer" if field == "seed" else "a positive integer"
        message = f"{field} must be {rule}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(SMALL, **{field: value})

    def test_non_integral_trial_count_fails_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(channel, "_fill_block", lambda *args: draws.append(args))
        with pytest.raises(ValueError,
                           match="n_trials must be an integer of at least 2, got 1000.0"):
            monte_carlo_rate(SMALL, 1e3)
        with pytest.raises(ValueError,
                           match="n_trials must be an integer of at least 2, got True"):
            monte_carlo_rate(SMALL, True)
        assert draws == []

    def test_bits_beyond_float_range_fail_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(channel, "_fill_block", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="quant_bits"):
            monte_carlo_rates(SMALL, 4, [("hybrid", None), ("hybrid", 1024)])
        assert draws == []


def assert_same_point(a, b):
    assert a.mean_rate == b.mean_rate
    assert a.std_error == b.std_error
    assert a.n_trials == b.n_trials
    assert a.n_degenerate == b.n_degenerate
    np.testing.assert_array_equal(a.per_pair_mean_sinr, b.per_pair_mean_sinr)


SHARED_VARIANTS = [
    ("full_digital", None), ("hybrid", None), ("hybrid", 1), ("hybrid", 2),
]


class TestSharedDraw:
    @pytest.mark.parametrize("threads", ["1", "4"])
    @pytest.mark.parametrize("drop", [None, PINNED], ids=["redrawn", "pinned"])
    @pytest.mark.parametrize("config", [
        SMALL, replace(SMALL, n_rx_chains=2, n_tx_chains=1),
    ], ids=["full-chains", "fewer-chains"])
    def test_matches_separate_calls_bitwise(self, monkeypatch, config, drop, threads):
        # Seven trials per block: 30 trials span five blocks.
        trials_per_block(monkeypatch, config, 7)
        monkeypatch.setenv("SIM_THREADS", threads)
        shared = monte_carlo_rates(config, 30, SHARED_VARIANTS, drop=drop)
        assert len(shared) == len(SHARED_VARIANTS)
        for (mode, bits), point in zip(SHARED_VARIANTS, shared):
            alone = monte_carlo_rate(
                replace(config, quant_bits=bits), 30, mode, drop=drop
            )
            assert_same_point(point, alone)

    def test_first_failing_variant_in_order_raises(self, monkeypatch):
        # SMALL's 100 trials fit one block, so row t of the block is trial t.
        # 1-bit loses its first 5 trials, 2-bit its first 10.
        orig = metrics._block_sinrs

        def lossy(config, lo, hi, variants, drop):
            out = orig(config, lo, hi, variants, drop)
            for rows, (_, bits) in zip(out, variants):
                rows[:{1: 5, 2: 10}.get(bits, 0)] = np.nan
            return out

        monkeypatch.setattr(metrics, "_block_sinrs", lossy)
        with pytest.raises(RuntimeError, match="^5 of 100"):
            monte_carlo_rates(
                SMALL, 100, [("hybrid", None), ("hybrid", 1), ("hybrid", 2)]
            )
        with pytest.raises(RuntimeError, match="^10 of 100"):
            monte_carlo_rates(SMALL, 100, [("hybrid", 2), ("hybrid", 1)])


# A one-trial block at N = 2048 runs its N-sized products through np.dot,
# and two chains of three pairs make the analog stage read a strided slice.
ONE_TRIAL = SystemConfig(
    n_antennas=2048, n_pairs=3, n_rx_chains=2, n_tx_chains=1, seed=8
)
ONE_TRIAL_VARIANTS = [
    ("hybrid", 2), ("full_digital", None), ("hybrid", None), ("hybrid", 1),
]


class TestWorkspace:
    """The engine's block arrays: their bits, their owners, their faults."""

    def test_variants_keep_their_bits_in_one_workspace(self):
        # Both variant orders over one-trial blocks: an array that one
        # variant left behind and another read would show.
        for variants in (ONE_TRIAL_VARIANTS, ONE_TRIAL_VARIANTS[::-1]):
            for trial in range(3):
                rows = _block_sinrs(ONE_TRIAL, trial, trial + 1, variants, None)
                real = sample_realization(ONE_TRIAL, trial)
                for (mode, bits), row in zip(variants, rows):
                    alone = _block_sinrs(ONE_TRIAL, trial, trial + 1, [(mode, bits)], None)
                    assert_same_bits(row, alone[0])
                    config = replace(ONE_TRIAL, quant_bits=bits)
                    assert_same_bits(row[0], sinrs(real, config, mode))

    @pytest.mark.parametrize("bits_list", [[], [None], [1], [None, 1, 2], [3, 2, 1, 2]])
    def test_block_computes_each_hops_phase_once(self, monkeypatch, bits_list):
        # One phase per hop whatever the number of quantized variants, none
        # when no variant is quantized; full digital takes no stage.
        phase, calls = metrics.hybrid._phase, []
        monkeypatch.setattr(metrics.hybrid, "_phase",
                            lambda gs: calls.append(gs.shape) or phase(gs))
        variants = [("full_digital", None)] + [("hybrid", bits) for bits in bits_list]
        rows = _block_sinrs(ONE_TRIAL, 0, 1, variants, None)
        quantized = any(bits is not None for bits in bits_list)
        assert calls == ([(1, 2048, 2), (1, 2048, 1)] if quantized else [])
        monkeypatch.undo()
        for (mode, bits), row in zip(variants, rows):
            assert_same_bits(row, _block_sinrs(ONE_TRIAL, 0, 1, [(mode, bits)], None)[0])

    def test_analog_stage_owns_its_arrays(self):
        # Two stages of one channel share no memory, and a later engine run
        # leaves a stage alone.
        real = sample_realization(ONE_TRIAL, 1)
        for quant in (None, QuantizationSpec(2)):
            f = build_analog(real.g1, 2, quant)
            assert not np.shares_memory(f, build_analog(real.g1, 2, quant))
            before = f.copy()
            monte_carlo_rates(ONE_TRIAL, 3, ONE_TRIAL_VARIANTS)
            assert_same_bits(f, before)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the pool changes glibc's allocator settings only")
    def test_serial_blocks_do_not_fault_their_arrays_in_again(self):
        # Blocks whose arrays go back to the OS fault them in anew, so the
        # count grows with the blocks: 8 161 faults for 20 one-trial blocks
        # at N = 2048 under glibc's default thresholds.  The pool's setting
        # keeps them in the heap.
        faults = fresh_serial_run("""
            import resource
            from hybridrelay import SystemConfig, monte_carlo_rates

            def faults(trials):
                before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
                monte_carlo_rates(SystemConfig(n_antennas=2048, seed=3), trials, [
                    ("full_digital", None), ("hybrid", None), ("hybrid", 2)])
                return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

            faults(2)
            print(faults(20))
        """)
        assert int(faults) <= 300


# (drop policy, regime settings) of the one-pool test, by test id; the
# fixed-power regime has no closed form.
POOL_INPUTS = {
    "redraw_per_trial": ("redraw_per_trial", dict(case="case2", eu_db=13.0, pr_db=13.0)),
    "fixed_drop": ("fixed_drop", dict(case="case2", eu_db=13.0, pr_db=13.0)),
    "fixed": ("redraw_per_trial", dict(case="fixed_power", pu_db=0.0, pr_db=5.0)),
}


class TestRunSweep:
    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("inputs", list(POOL_INPUTS))
    def test_one_pool_equals_separate_calls_per_array_size(
        self, monkeypatch, threads, inputs
    ):
        # Blocks of one to three trials, so the pool interleaves array sizes.
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 2 ** 12)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("SIM_THREADS", threads)
        drop_policy, regime = POOL_INPUTS[inputs]
        spec = SweepSpec(
            n_values=(8, 16, 24), beta_values=(None, 1),
            modes=("hybrid", "full_digital"), trials=7,
            drop_policy=drop_policy, **regime,
        )
        config = SystemConfig(n_antennas=24, n_pairs=3, n_rx_chains=3,
                              n_tx_chains=3, seed=5)
        rows = run_sweep(spec, config)
        drop = canonical_drop(config) if drop_policy == "fixed_drop" else None
        variants = [("full_digital", None), ("hybrid", None), ("hybrid", 1)]
        expected = []
        for n in spec.n_values:
            p_user, p_relay = _cell_powers(spec, n)
            base = replace(config, n_antennas=n, p_user=p_user, p_relay=p_relay)
            points = metrics.monte_carlo_rates(base, spec.trials, variants, drop=drop)
            expected += [
                (n, beta, mode, p.mean_rate, p.std_error, p.n_trials, p.n_degenerate)
                for (mode, beta), p in zip(variants, points)
            ]
        got = [
            (r["N"], r["beta"], r["mode"], r["mean_rate_bps_hz"], r["std_err"],
             r["trials"], r["degenerate_trials"])
            for r in rows
        ]
        assert sorted(got, key=repr) == sorted(expected, key=repr)
        if spec.case == "fixed_power":
            assert all(r["asymptote_rate"] is None for r in rows)

    def test_blocks_queue_largest_array_first(self, monkeypatch):
        # One pool job per (config, lo, hi) block: the N = 24 blocks of one
        # trial, then N = 16's of two and N = 8's of five, each in trial
        # order.  diagnostics.lemma_rows queues its draws by the same rule.
        queued, pool_map = [], metrics._pool_map
        monkeypatch.setattr(metrics, "_pool_map",
                            lambda fn, jobs: queued.append(jobs) or pool_map(fn, jobs))
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 2 ** 12)
        spec = SweepSpec(case="case2", n_values=(8, 16, 24), trials=7,
                         eu_db=13.0, pr_db=13.0)
        run_sweep(spec, SystemConfig(n_antennas=24, n_pairs=3, n_rx_chains=3,
                                     n_tx_chains=3))
        assert queued == [
            [(2, lo, lo + 1) for lo in range(7)]
            + [(1, 0, 2), (1, 2, 4), (1, 4, 6), (1, 6, 7), (0, 0, 5), (0, 5, 7)]
        ]

    def test_cell_powers_follow_each_scaling_law(self):
        def spec(case, **kw):
            return SweepSpec(case=case, n_values=(10,), beta_values=(None,),
                             modes=("hybrid",), **kw)

        # 10 dB -> 10x, 20 dB -> 100x; N = 10 divides the scaled sides.
        assert _cell_powers(spec("case1", eu_db=10, er_db=20), 10) == (1.0, 10.0)
        assert _cell_powers(spec("case2", eu_db=10, pr_db=20), 10) == (1.0, 100.0)
        assert _cell_powers(spec("case3", pu_db=10, er_db=20), 10) == (10.0, 10.0)
        assert _cell_powers(spec("fixed_power", pu_db=10, pr_db=20), 10) == (10.0, 100.0)
