"""Channel generation: streams, fading statistics, geometry, drop handling."""

import numpy as np
import pytest

from hybridrelay import (
    SystemConfig,
    canonical_drop,
    pathloss,
    sample_large_scale,
    sample_realization,
    sample_small_scale,
    trial_rng,
)

CFG = SystemConfig(n_antennas=16, seed=0)


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


class TestPathloss:
    def test_frozen_value_at_cell_edge(self):
        # (1000 / 100)^(-3.8) evaluated by hand.
        assert pathloss(1000.0, CFG) == pytest.approx(
            1.5848931924611134e-4, rel=1e-12
        )

    def test_unity_on_guard_circle(self):
        assert pathloss(100.0, CFG) == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        radii = np.linspace(100.0, 1000.0, 50)
        vals = [pathloss(r, CFG) for r in radii]
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
        assert real.h1.shape == (CFG.n_antennas, CFG.n_pairs)
        assert real.h2.shape == (CFG.n_antennas, CFG.n_pairs)
        assert real.eta1.shape == (CFG.n_pairs,)

    def test_gain_applied_per_column(self):
        real = sample_realization(CFG, 2)
        np.testing.assert_allclose(real.g1, real.h1 * np.sqrt(real.eta1))
        np.testing.assert_allclose(real.g2, real.h2 * np.sqrt(real.eta2))

    def test_injected_drop_keeps_fading_aligned(self):
        # Pinning the placement must not perturb the small-scale draw:
        # fading comes off the stream before the large-scale gains do.
        free = sample_realization(CFG, 9)
        drop = (np.full(CFG.n_pairs, 2.0), np.full(CFG.n_pairs, 0.5))
        pinned = sample_realization(CFG, 9, drop=drop)
        np.testing.assert_array_equal(free.h1, pinned.h1)
        np.testing.assert_array_equal(free.h2, pinned.h2)
        np.testing.assert_array_equal(pinned.eta1, drop[0])
        np.testing.assert_allclose(pinned.g1, pinned.h1 * np.sqrt(2.0))

    def test_drop_wrong_length_rejected(self):
        bad = (np.ones(3), np.ones(CFG.n_pairs))
        with pytest.raises(ValueError, match="length-10"):
            sample_realization(CFG, 0, drop=bad)

    def test_drop_nonpositive_rejected(self):
        bad = (np.ones(CFG.n_pairs), np.zeros(CFG.n_pairs))
        with pytest.raises(ValueError, match="strictly positive"):
            sample_realization(CFG, 0, drop=bad)
