"""Channel generation: streams, fading statistics, geometry, drop handling."""

import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_same_bits
from hybridrelay import (
    SystemConfig,
    canonical_drop,
    channel,
    lemma_rng,
    monte_carlo_rates,
    sample_large_scale,
    sample_realization,
    sample_small_scale,
    trial_rng,
)

CFG = SystemConfig(n_antennas=16, seed=0)


class _NoDraws:
    """A generator stand-in that fails if anything is drawn from it."""

    def __getattr__(self, name):
        raise AssertionError(f"the generator was drawn from ({name})")


class TestStreams:
    def test_same_trial_same_draws(self):
        a = trial_rng(7, 3).standard_normal(8)
        b = trial_rng(7, 3).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_trials_distinct_draws(self):
        a = trial_rng(7, 3).standard_normal(8)
        b = trial_rng(7, 4).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_distinct_draws(self):
        a = trial_rng(7, 3).standard_normal(8)
        b = trial_rng(8, 3).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            trial_rng(0, -1)

    @pytest.mark.parametrize("call,message", [
        (lambda: trial_rng(3, True), "trial must be a non-negative integer, got True"),
        (lambda: trial_rng(3, 2.0), "trial must be a non-negative integer, got 2.0"),
        (lambda: trial_rng(True, 0), "seed must be a non-negative integer, got True"),
        (lambda: trial_rng(1.0, 0), "seed must be a non-negative integer, got 1.0"),
        (lambda: sample_realization(CFG, True),
         "trial must be a non-negative integer, got True"),
        (lambda: sample_realization(CFG, 2.0),
         "trial must be a non-negative integer, got 2.0"),
        (lambda: sample_realization(CFG, -1),
         "trial must be a non-negative integer, got -1"),
        (lambda: lemma_rng(True, 8), "seed must be a non-negative integer, got True"),
        (lambda: lemma_rng(0, True), "n must be a non-negative integer, got True"),
        (lambda: lemma_rng(0, 8.0), "n must be a non-negative integer, got 8.0"),
        (lambda: sample_small_scale(True, 3, _NoDraws()),
         "n must be a positive integer, got True"),
        (lambda: sample_small_scale(2.0, 3, _NoDraws()),
         "n must be a positive integer, got 2.0"),
        (lambda: sample_small_scale(4, -1, _NoDraws()),
         "k must be a positive integer, got -1"),
        (lambda: sample_small_scale(4, 0, _NoDraws()),
         "k must be a positive integer, got 0"),
    ], ids=["trial-bool", "trial-float", "seed-bool", "seed-float",
            "realization-bool", "realization-float", "realization-negative",
            "lemma-seed-bool", "lemma-n-bool", "lemma-n-float",
            "small-scale-n-bool", "small-scale-n-float", "small-scale-k-negative",
            "small-scale-k-zero"])
    def test_non_integer_index_rejected_before_any_stream(self, monkeypatch, call, message):
        # A bool used to pass as 1, and a float failed inside numpy or range.
        def no_stream(*args, **kwargs):
            raise AssertionError("a stream was seeded")

        monkeypatch.setattr(np.random, "SeedSequence", no_stream)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_one_integer_rule_one_message(self):
        # The scenario and both stream functions state the seed rule alike.
        messages = set()
        for call in (lambda: SystemConfig(n_antennas=16, seed=1.5),
                     lambda: trial_rng(1.5, 0), lambda: lemma_rng(1.5, 8)):
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"seed must be a non-negative integer, got 1.5"}

    def test_negative_seed_rejected(self):
        # Stream seeds must be non-negative; the scenario says so up front.
        with pytest.raises(ValueError, match="seed"):
            SystemConfig(n_antennas=16, seed=-1)

    def test_draw_order_is_re_then_im(self):
        # The stream layout is contractual: regenerating it by hand from the
        # same generator state must give the identical matrix.
        rng = trial_rng(11, 0)
        h = sample_small_scale(5, 3, rng)
        rng2 = trial_rng(11, 0)
        re = rng2.standard_normal((5, 3))
        im = rng2.standard_normal((5, 3))
        np.testing.assert_array_equal(h, (re + 1j * im) / np.sqrt(2.0))


class TestSmallScale:
    def test_unit_variance_zero_mean(self, rng):
        h = sample_small_scale(1000, 1000, rng)
        assert abs(h.mean()) < 5e-3
        assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 5e-3

    def test_circular_symmetry(self, rng):
        # Real and imaginary parts each carry half the power, uncorrelated.
        h = sample_small_scale(1000, 1000, rng).ravel()
        assert abs(np.mean(h.real**2) - 0.5) < 5e-3
        assert abs(np.mean(h.imag**2) - 0.5) < 5e-3
        assert abs(np.mean(h.real * h.imag)) < 5e-3

    def test_shape(self, rng):
        assert sample_small_scale(7, 4, rng).shape == (7, 4)


class _FixedDraws:
    """Generator stub: every uniform draw is u and every normal draw 0."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)

    def standard_normal(self, size):
        return np.zeros(size)


def distance_gain(u):
    """Source-side gain of sample_large_scale at area quantile u, unshadowed.

    u = 0 puts the user on the guard circle, u = 1 on the cell edge.
    """
    cfg = replace(CFG, shadow_std_db=0.0)
    eta1, _ = sample_large_scale(cfg, _FixedDraws(u))
    return eta1[0]


class TestPathloss:
    def test_frozen_value_at_cell_edge(self):
        # (1000 / 100)^(-3.8) evaluated by hand.
        assert distance_gain(1.0) == pytest.approx(
            1.5848931924611134e-4, rel=1e-12
        )

    def test_unity_on_guard_circle(self):
        assert distance_gain(0.0) == 1.0

    def test_monotone_decreasing(self):
        vals = [distance_gain(u) for u in np.linspace(0.0, 1.0, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLargeScale:
    def test_radius_law(self):
        # With shadowing off, eta = (r / r_g)^(-nu) inverts to the radius,
        # which must live in [r_g, R] with E[r^2] = (r_g^2 + R^2) / 2 for a
        # placement uniform over the annulus area.
        cfg = SystemConfig(n_antennas=16, n_pairs=10, shadow_std_db=0.0)
        rng = np.random.default_rng(5)
        r_all = []
        for _ in range(2000):
            eta1, eta2 = sample_large_scale(cfg, rng)
            for eta in (eta1, eta2):
                r = cfg.guard_radius_m * eta ** (-1.0 / cfg.pathloss_exp)
                r_all.append(r)
        r_all = np.concatenate(r_all)
        assert r_all.min() >= cfg.guard_radius_m - 1e-9
        assert r_all.max() <= cfg.cell_radius_m + 1e-9
        expect = (cfg.guard_radius_m**2 + cfg.cell_radius_m**2) / 2.0
        assert np.mean(r_all**2) == pytest.approx(expect, rel=0.01)

    def test_shadowing_law(self):
        # With pathloss off, eta is pure log-normal shadowing:
        # E[ln eta] = 0 and Var[ln eta] = (sigma_sh * ln 10 / 10)^2.
        cfg = SystemConfig(n_antennas=16, n_pairs=10, pathloss_exp=0.0)
        rng = np.random.default_rng(6)
        logs = []
        for _ in range(2000):
            eta1, eta2 = sample_large_scale(cfg, rng)
            logs.append(np.log(eta1))
            logs.append(np.log(eta2))
        logs = np.concatenate(logs)
        sigma = cfg.shadow_std_db * np.log(10.0) / 10.0
        assert abs(logs.mean()) < 0.05 * sigma
        assert logs.std() == pytest.approx(sigma, rel=0.02)

    def test_gains_positive(self, rng):
        eta1, eta2 = sample_large_scale(CFG, rng)
        assert np.all(eta1 > 0) and np.all(eta2 > 0)
        assert eta1.shape == (CFG.n_pairs,)

    def test_overflowing_gain_is_degenerate_without_a_warning(self, rng):
        # 1e300 dB of shadowing overflows to inf or 0, and against a path
        # loss that underflows to 0 gives NaN, with no numpy warning
        # (filterwarnings = error): each such gain is a degenerate trial.
        gains = np.concatenate(sample_large_scale(replace(CFG, shadow_std_db=1e300), rng))
        assert np.isposinf(gains).any() and (gains == 0.0).any()
        gains = np.concatenate(sample_large_scale(
            replace(CFG, shadow_std_db=1e300, pathloss_exp=1e6), rng))
        assert np.isnan(gains).any()

class TestCanonicalDrop:
    def test_independent_of_scenario_seed(self):
        a = canonical_drop(SystemConfig(n_antennas=16, seed=0))
        b = canonical_drop(SystemConfig(n_antennas=16, seed=99))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_depends_on_geometry(self):
        a = canonical_drop(SystemConfig(n_antennas=16))
        b = canonical_drop(SystemConfig(n_antennas=16, pathloss_exp=2.0))
        assert not np.array_equal(a[0], b[0])


class TestSampleRealization:
    def test_pure_function_of_seed_and_trial(self):
        a = sample_realization(CFG, 5)
        b = sample_realization(CFG, 5)
        np.testing.assert_array_equal(a.g1, b.g1)
        np.testing.assert_array_equal(a.g2, b.g2)
        np.testing.assert_array_equal(a.eta1, b.eta1)

    def test_shapes(self):
        real = sample_realization(CFG, 0)
        assert real.g1.shape == (CFG.n_antennas, CFG.n_pairs)
        assert real.g2.shape == (CFG.n_antennas, CFG.n_pairs)
        assert real.eta1.shape == (CFG.n_pairs,)

    def test_gain_applied_per_column(self):
        # Under unit gains g is the small-scale fading h itself.
        ones = (np.ones(CFG.n_pairs), np.ones(CFG.n_pairs))
        h = sample_realization(CFG, 2, drop=ones)
        drop = (np.linspace(0.5, 2.0, CFG.n_pairs), np.linspace(3.0, 0.1, CFG.n_pairs))
        real = sample_realization(CFG, 2, drop=drop)
        np.testing.assert_allclose(real.g1, h.g1 * np.sqrt(drop[0]))
        np.testing.assert_allclose(real.g2, h.g2 * np.sqrt(drop[1]))

    def test_injected_drop_keeps_fading_aligned(self):
        # Pinning the placement must not perturb the small-scale draw:
        # fading comes off the stream before the large-scale gains do.
        free = sample_realization(CFG, 9)
        drop = (np.full(CFG.n_pairs, 2.0), np.full(CFG.n_pairs, 0.5))
        pinned = sample_realization(CFG, 9, drop=drop)
        # h = g / sqrt(eta) on both sides; the bitwise pin of the fading is
        # TestStreamLayout.
        for g_free, eta_free, g_pinned, eta_pinned in (
            (free.g1, free.eta1, pinned.g1, 2.0), (free.g2, free.eta2, pinned.g2, 0.5)
        ):
            np.testing.assert_allclose(g_pinned / np.sqrt(eta_pinned),
                                       g_free / np.sqrt(eta_free), rtol=1e-15)
        np.testing.assert_array_equal(pinned.eta1, drop[0])

    def test_realization_owns_its_arrays(self):
        # No cache or reused buffer: two draws of one trial share no memory,
        # and a later engine run, which draws the same trial, leaves it alone.
        real = sample_realization(CFG, 3)
        again = sample_realization(CFG, 3)
        assert not np.shares_memory(real.g1, again.g1)
        assert not np.shares_memory(real.g2, again.g2)
        before = [a.copy() for a in (real.g1, real.g2, real.eta1, real.eta2)]
        monte_carlo_rates(CFG, 6, [("hybrid", None), ("full_digital", None)])
        for now, then in zip((real.g1, real.g2, real.eta1, real.eta2), before):
            assert_same_bits(now, then)

    def test_drop_wrong_length_rejected(self):
        bad = (np.ones(3), np.ones(CFG.n_pairs))
        with pytest.raises(ValueError, match="length-10"):
            sample_realization(CFG, 0, drop=bad)

    def test_drop_nonpositive_rejected(self, monkeypatch):
        # A NaN or infinite gain used to reach the draw unchecked.
        monkeypatch.setattr(channel, "_fill_block", None)
        for gain in (0.0, np.nan, np.inf):
            bad = (np.ones(CFG.n_pairs), np.full(CFG.n_pairs, gain))
            message = f"eta2[0] must be a finite number above 0, got {gain!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample_realization(CFG, 0, drop=bad)


def _straight_line_draw(config, trial, drop):
    """The trial stream's layout written out: four N x K normal fills (h1
    real, h1 imaginary, h2 real, h2 imaginary), then the large-scale gains."""
    rng = trial_rng(config.seed, trial)
    shape = (config.n_antennas, config.n_pairs)
    re1 = rng.standard_normal(shape)
    im1 = rng.standard_normal(shape)
    re2 = rng.standard_normal(shape)
    im2 = rng.standard_normal(shape)
    h1 = (re1 + 1j * im1) / np.sqrt(2.0)
    h2 = (re2 + 1j * im2) / np.sqrt(2.0)
    eta1, eta2 = sample_large_scale(config, rng) if drop is None else drop
    return h1 * np.sqrt(eta1), h2 * np.sqrt(eta2), eta1, eta2


class TestStreamLayout:
    @pytest.mark.parametrize("k", [3, 10])
    @pytest.mark.parametrize("pinned", [False, True], ids=["redrawn", "pinned"])
    def test_block_fill_matches_straight_line_draw(self, k, pinned):
        cfg = SystemConfig(n_antennas=24, n_pairs=k, n_rx_chains=k,
                           n_tx_chains=k, seed=17)
        drop = (np.linspace(0.5, 2.0, k), np.linspace(3.0, 0.1, k)) if pinned else None
        # Blocks of 1, 2 and 5 trials, none starting at trial 0.  Each block
        # is filled whole before any trial is checked, so a write into the
        # wrong slice would show.  The last block straddles 2**32, where the
        # block's seeding hands over to trial_rng.
        for lo, hi in ((4, 5), (4, 6), (9, 14), (2**32 - 2, 2**32 + 1)):
            g1, g2, *etas = channel._fill_block(cfg, lo, hi, drop)
            for i, trial in enumerate(range(lo, hi)):
                want_g1, want_g2, eta1, eta2 = _straight_line_draw(cfg, trial, drop)
                assert_same_bits(g1[i], want_g1)
                assert_same_bits(g2[i], want_g2)
                assert_same_bits(etas[0][i], eta1)
                assert_same_bits(etas[1][i], eta2)
                real = sample_realization(cfg, trial, drop=drop)
                assert_same_bits(real.g1, g1[i])
                assert_same_bits(real.g2, g2[i])
                assert_same_bits(real.eta1, eta1)
                assert_same_bits(real.eta2, eta2)


class TestBlockSeeding:
    """The block draw's seeding finishes numpy's SeedSequence hash per trial:
    channel._trial_rngs takes the pool of the trial index's prefix from
    numpy's own SeedSequence, then runs the last hashmix/mix steps
    (numpy/random/bit_generator.pyx), with constants it computes from the
    seed's word count, and PCG64's own seeding step on the words.  A numpy
    change to any of these, or a wrong step count, fails here."""

    # Seeds at each entropy-word count around SeedSequence's 4-word pool:
    # 2**96 - 1 takes three words, 2**128 - 1 four, 2**130 + 1 five and
    # 2**160 + 7 six; a numpy integer seed is read as its value.
    @pytest.mark.parametrize(
        "seed",
        [0, 17, 2**32 + 5, 2**96 - 1, 2**128 - 1, 2**130 + 1, 2**160 + 7,
         np.uint64(2**64 - 1)],
        ids=["0", "17", "2**32+5", "2**96-1", "2**128-1", "2**130+1", "2**160+7",
             "uint64(2**64-1)"])
    def test_streams_equal_seed_sequence_and_trial_rng(self, seed):
        # A one-trial block is trial_rng's own, so the replay's edge cases
        # are the last trials of two-trial blocks.
        blocks = [(0, 300), (2**31 + 7, 2**31 + 9), (2**32 - 2, 2**32)]
        for lo, hi in blocks:
            for trial, rng in zip(range(lo, hi), channel._trial_rngs(seed, lo, hi)):
                seq = np.random.SeedSequence(entropy=seed, spawn_key=(0, trial))
                assert (rng.bit_generator.seed_seq.words
                        == seq.generate_state(4, np.uint64).tolist())
                ref = trial_rng(seed, trial)
                assert rng.bit_generator.state == ref.bit_generator.state
                assert_same_bits(rng.standard_normal(40), ref.standard_normal(40))
                assert_same_bits(rng.random(10), ref.random(10))

    def test_one_trial_block_builds_no_pool(self, monkeypatch):
        # A one-trial block seeds through trial_rng: one SeedSequence per
        # trial, none for a block's pool, and the bits of a longer block.
        cfg = SystemConfig(n_antennas=16, seed=17)
        block = channel._fill_block(cfg, 3, 9, None)
        keys, seed_sequence = [], np.random.SeedSequence

        def recording(*args, **kwargs):
            keys.append(kwargs.get("spawn_key"))
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        for i, trial in enumerate(range(3, 9)):
            for alone, whole in zip(channel._fill_block(cfg, trial, trial + 1, None), block):
                assert_same_bits(alone[0], whole[i])
        assert keys == [(0, trial) for trial in range(3, 9)]

    def test_state_words_serve_only_pcg64s_request(self):
        words = channel._StateWords([1, 2, 3, 4])
        np.testing.assert_array_equal(words.generate_state(4, np.uint64), [1, 2, 3, 4])
        for request in ((4, np.uint32), (8, np.uint64)):
            with pytest.raises(ValueError, match="four uint64"):
                words.generate_state(*request)
