"""Closed-form limits: frozen values, cross-checks, and regime reductions."""

import math
import re

import numpy as np
import pytest

import oracles
from hybridrelay import (
    AsymptoticInputs,
    rate_case1,
    rate_case2,
    rate_case3,
    sinr_case1,
)

EU = 10.0 ** 1.3  # 13 dB
ONES = np.ones(10)


def unit_inputs(**kw):
    base = dict(eta1=ONES, eta2=ONES, r=10)
    base.update(kw)
    return AsymptoticInputs(**base)


class TestFrozenValues:
    """Values computed by hand (or with a desk calculator) and pinned."""

    def test_rate_case2_unit_gains(self):
        # 5 * log2(1 + (pi/4) * 10^1.3) with ten identical pairs.
        inp = unit_inputs(e_user=EU)
        assert rate_case2(inp) == pytest.approx(20.296237077892407, rel=1e-13)

    def test_rate_case2_one_bit_phases(self):
        # delta = pi/2 makes sinc^2 = (2/pi)^2.
        inp = unit_inputs(e_user=EU, delta=math.pi / 2.0)
        assert rate_case2(inp) == pytest.approx(14.38981761842797, rel=1e-13)

    def test_sinr_case1_unit_gains(self):
        inp = unit_inputs(e_user=EU, e_relay=EU)
        assert sinr_case1(inp, 0) == pytest.approx(1.3465008282828537, rel=1e-13)

    def test_rate_case1_unit_gains(self):
        inp = unit_inputs(e_user=EU, e_relay=EU)
        assert rate_case1(inp) == pytest.approx(6.152554848089892, rel=1e-13)

    def test_single_pair_case2_case3_coincide(self):
        # With one unit-gain pair the interference sum collapses and the two
        # one-sided limits share the same kernel.
        one = np.ones(1)
        r2 = rate_case2(AsymptoticInputs(eta1=one, eta2=one, r=1, e_user=EU))
        r3 = rate_case3(AsymptoticInputs(eta1=one, eta2=one, r=1, e_relay=EU))
        assert r2 == pytest.approx(2.0296237077892405, rel=1e-13)
        assert r3 == pytest.approx(r2, rel=1e-13)


class TestAgainstTranscription:
    """The vectorized forms must agree with explicit per-pair loops."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.eta1 = rng.uniform(0.1, 3.0, size=8)
        self.eta2 = rng.uniform(0.1, 3.0, size=8)

    @pytest.mark.parametrize("delta", [0.0, math.pi / 4.0])
    def test_sinr_case1(self, delta):
        inp = AsymptoticInputs(eta1=self.eta1, eta2=self.eta2, r=6,
                               e_user=5.0, e_relay=7.0,
                               var_relay_noise=0.8, var_dest_noise=1.3,
                               delta=delta)
        expect = oracles.sinr_case1_reference(
            self.eta1, self.eta2, 6, 5.0, 7.0, 0.8, 1.3, delta
        )
        for k in range(6):
            assert sinr_case1(inp, k) == pytest.approx(expect[k], rel=1e-14)

    @pytest.mark.parametrize("delta", [0.0, math.pi / 8.0])
    def test_rate_case2(self, delta):
        inp = AsymptoticInputs(eta1=self.eta1, eta2=self.eta2, r=8,
                               e_user=EU, var_relay_noise=0.9, delta=delta)
        expect = oracles.rate_case2_reference(self.eta1, 8, EU, 0.9, delta)
        assert rate_case2(inp) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("delta", [0.0, math.pi / 8.0])
    def test_rate_case3(self, delta):
        inp = AsymptoticInputs(eta1=self.eta1, eta2=self.eta2, r=5,
                               e_relay=EU, var_dest_noise=1.4, delta=delta)
        expect = oracles.rate_case3_reference(
            self.eta1, self.eta2, 5, EU, 1.4, delta
        )
        assert rate_case3(inp) == pytest.approx(expect, rel=1e-14)


class TestRegimeReductions:
    """The two-sided limit degenerates to each one-sided limit correctly."""

    def setup_method(self):
        rng = np.random.default_rng(9)
        self.eta1 = rng.uniform(0.2, 2.0, size=5)
        self.eta2 = rng.uniform(0.2, 2.0, size=5)

    def test_case1_reduces_to_case2_kernel(self):
        # Unbounded relay-side energy leaves relay noise as the only
        # impairment: the case-2 per-pair SINR.
        inp = AsymptoticInputs(eta1=self.eta1, eta2=self.eta2, r=5,
                               e_user=4.0, e_relay=1e12,
                               var_relay_noise=0.7)
        for k in range(5):
            kernel = math.pi / 4.0 * 4.0 * self.eta1[k] / 0.7
            assert sinr_case1(inp, k) == pytest.approx(kernel, rel=1e-6)

    def test_case1_reduces_to_case3_kernel(self):
        inp = AsymptoticInputs(eta1=self.eta1, eta2=self.eta2, r=5,
                               e_user=1e12, e_relay=4.0,
                               var_dest_noise=1.2)
        s21 = float(np.sum(self.eta1**2 * self.eta2))
        for k in range(5):
            kernel = (math.pi / 4.0 * 4.0 * self.eta1[k] ** 2
                      * self.eta2[k] ** 2 / (1.2 * s21))
            assert sinr_case1(inp, k) == pytest.approx(kernel, rel=1e-6)

    def test_quantization_penalty_monotone(self):
        deltas = [math.pi / 2**b for b in range(1, 8)]
        inp = lambda d: unit_inputs(e_user=EU, delta=d)
        rates = [rate_case2(inp(d)) for d in deltas]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < rate_case2(unit_inputs(e_user=EU))


class TestZeroEnergy:
    """No energy on a scaled side: nothing gets through, and no
    floating-point warning is raised (pytest turns one into an error)."""

    @pytest.mark.parametrize("law,energies", [
        (rate_case1, dict(e_user=0.0, e_relay=EU)),
        (rate_case1, dict(e_user=EU, e_relay=0.0)),
        (rate_case1, dict(e_user=0.0, e_relay=0.0)),
        (rate_case2, dict(e_user=0.0)),
        (rate_case3, dict(e_relay=0.0)),
    ])
    def test_rate_is_zero(self, law, energies):
        assert law(unit_inputs(**energies)) == 0.0

    @pytest.mark.parametrize("energies", [
        dict(e_user=0.0, e_relay=EU),
        dict(e_user=EU, e_relay=0.0),
        dict(e_user=0.0, e_relay=0.0),
    ])
    def test_sinr_is_zero(self, energies):
        assert sinr_case1(unit_inputs(**energies), 3) == 0.0

    def test_fixed_side_energy_not_read(self):
        # The fixed-power side's energy is unbounded whatever is passed.
        assert rate_case2(unit_inputs(e_user=EU, e_relay=0.0)) == rate_case2(
            unit_inputs(e_user=EU)
        )
        assert rate_case3(unit_inputs(e_user=0.0, e_relay=EU)) == rate_case3(
            unit_inputs(e_relay=EU)
        )


class TestOverflow:
    """Settings that pass every check give no floating-point warning
    (pytest turns one into an error): a term of 1/SINR that overflows is 0,
    its limit, and a SINR beyond the float range is inf."""

    def test_sinr_beyond_float_range_is_inf(self):
        inp = unit_inputs(e_user=EU, var_relay_noise=1e-320)
        assert rate_case2(inp) == math.inf
        assert sinr_case1(unit_inputs(e_user=EU, e_relay=EU, var_relay_noise=1e-320,
                                      var_dest_noise=1e-320), 0) == math.inf

    def test_overflowing_cross_term_drops_out(self):
        # With unit gains, 1/SINR = (1 + r) / (gain E) + a cross term whose
        # denominator gain^2 E^2 overflows; the cross term is 0 (rel 1e-308).
        inp = AsymptoticInputs(np.ones(3), np.ones(3), 3, e_user=1e308, e_relay=1e308)
        sinr = math.pi / 4 * 1e308 / 4
        assert sinr_case1(inp, 0) == pytest.approx(sinr, rel=1e-15)
        assert rate_case1(inp) == pytest.approx(1.5 * math.log2(1.0 + sinr), rel=1e-15)

    def test_overflowing_energy_term_drops_out(self):
        # 1e300 * 1e10 overflows: the user side's term is 0, and case 2's
        # limit SINR is beyond the float range.
        inp = unit_inputs(e_user=1e300, eta1=np.full(10, 1e10))
        assert rate_case2(inp) == math.inf


class TestExtremeGains:
    """Gains whose squares and cubes leave the float range: the direct law's
    ratios of two infinite or two zero sums once gave NaN with a numpy
    warning.  Three equal gains g at unit energies and noise have 1/SINR
    = (1 + 3) / (gain g) (case 1), 1 / (gain g) (case 2) and 3 / (gain g)
    (case 3), up to a cross term of relative size 1/g (1e-160 here)."""

    @pytest.mark.parametrize("law, expected", [
        (rate_case1, 793.7399869671754),
        (rate_case2, 796.7399869671754),
        (rate_case3, 794.3625432160937),
    ], ids=["case1", "case2", "case3"])
    def test_overflowing_gains(self, law, expected):
        inp = AsymptoticInputs(np.full(3, 1e160), np.full(3, 1e160), 3,
                               e_user=1.0, e_relay=1.0)
        assert law(inp) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("law", [rate_case1, rate_case2, rate_case3],
                             ids=["case1", "case2", "case3"])
    def test_underflowing_gains(self, law):
        # No SINR is above about 1e-200: log2(1 + SINR) rounds to 0.
        inp = AsymptoticInputs(np.full(3, 1e-200), np.full(3, 1e-200), 3,
                               e_user=1.0, e_relay=1.0)
        assert law(inp) == 0.0

    @pytest.mark.parametrize("a, b", [(1e160, 1e160), (1e-200, 1e-200), (1e300, 1e-300)])
    def test_scaled_gains_keep_every_sinr(self, a, b):
        # Gains a eta1 and b eta2 at energies Eu / a and Er / b leave every
        # term of 1/SINR as it was, so every SINR and rate keeps its value,
        # though the direct law's sums and products leave the float range.
        eta1, eta2 = np.array([1.0, 2.0, 0.5]), np.array([3.0, 1.0, 0.25])
        base = AsymptoticInputs(eta1, eta2, 3, e_user=EU, e_relay=2.0, delta=0.3)
        scaled = AsymptoticInputs(eta1 * a, eta2 * b, 3, e_user=EU / a,
                                  e_relay=2.0 / b, delta=0.3)
        for k in range(3):
            assert sinr_case1(scaled, k) == pytest.approx(sinr_case1(base, k), rel=1e-12)
        for law in (rate_case1, rate_case2, rate_case3):
            assert law(scaled) == pytest.approx(law(base), rel=1e-12)

    def test_zero_energy_with_overflowing_gains_is_zero(self):
        # 0 * inf in the cross term; a zero energy still gives SINR 0.
        for e_user, e_relay in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
            inp = AsymptoticInputs(np.full(3, 1e160), np.full(3, 1e160), 3,
                                   e_user=e_user, e_relay=e_relay)
            assert sinr_case1(inp, 0) == 0.0


class TestValidation:
    def test_missing_energy_named(self):
        with pytest.raises(ValueError, match="e_user"):
            rate_case2(unit_inputs())
        with pytest.raises(ValueError, match="e_relay"):
            sinr_case1(unit_inputs(e_user=1.0), 0)

    def test_pair_index_checked(self):
        inp = unit_inputs(e_user=1.0, e_relay=1.0)
        # A bool used to read pair 1, and a float failed in the indexing.
        for k in (10, -1, True, 1.0):
            message = f"k must be a non-negative integer up to 9, got {k!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sinr_case1(inp, k)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            unit_inputs(e_user=1.0, delta=-0.1)
        with pytest.raises(ValueError):
            unit_inputs(e_user=1.0, delta=math.pi)

    def test_active_gains_must_be_positive(self):
        eta = np.ones(10)
        eta[3] = 0.0
        with pytest.raises(ValueError):
            AsymptoticInputs(eta1=eta, eta2=ONES, r=10)
        # A zero beyond the active prefix is fine.
        AsymptoticInputs(eta1=eta, eta2=ONES, r=3)

    def test_active_pair_count_bounds(self):
        with pytest.raises(ValueError):
            AsymptoticInputs(eta1=ONES, eta2=ONES, r=0)
        with pytest.raises(ValueError):
            AsymptoticInputs(eta1=ONES, eta2=ONES, r=11)

    @pytest.mark.parametrize("kw,fragment", [
        (dict(eta1=np.ones((2, 10))), "1-D gain vectors"),
        (dict(var_relay_noise=0.0),
         "var_relay_noise must be a finite number above 0, got 0.0"),
        (dict(var_dest_noise=-1.0),
         "var_dest_noise must be a finite number above 0, got -1.0"),
        (dict(r=2.0), "r must be a positive integer up to 10, got 2.0"),
        (dict(r=True), "r must be a positive integer up to 10, got True"),
        (dict(var_relay_noise=math.nan),
         "var_relay_noise must be a finite number above 0, got nan"),
        (dict(var_dest_noise=math.inf),
         "var_dest_noise must be a finite number above 0, got inf"),
        (dict(eta1=np.r_[1.0, math.nan, np.ones(8)]),
         "eta1[1] must be a finite number above 0, got nan"),
        (dict(eta2=np.r_[np.ones(9), math.inf]),
         "eta2[9] must be a finite number above 0, got inf"),
        (dict(delta=-0.1), "delta must be a finite number of at least 0, got -0.1"),
        (dict(delta=2.0), "delta must be at most pi/2, got 2.0"),
        # An integer beyond the float range is no finite number either.
        (dict(e_relay=2 ** 1024),
         f"e_relay must be a finite number of at least 0, got {2 ** 1024}"),
    ], ids=["2d-eta", "zero-relay-noise", "negative-dest-noise", "float-r", "bool-r",
            "nan-relay-noise", "infinite-dest-noise", "nan-gain", "infinite-gain",
            "negative-delta", "delta-above-half-pi", "energy-beyond-float-range"])
    def test_malformed_inputs_rejected(self, kw, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            unit_inputs(e_user=1.0, **kw)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            unit_inputs(e_user=-1.0)
