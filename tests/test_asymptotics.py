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
        (dict(var_relay_noise=0.0), "noise variances must be positive"),
        (dict(var_dest_noise=-1.0), "noise variances must be positive"),
        (dict(r=2.0), "r must be a positive integer up to 10, got 2.0"),
        (dict(r=True), "r must be a positive integer up to 10, got True"),
        (dict(var_relay_noise=math.nan), "var_relay_noise must be finite"),
        (dict(var_dest_noise=math.inf), "var_dest_noise must be finite"),
        (dict(eta1=np.r_[1.0, math.nan, np.ones(8)]),
         "active large-scale gains must be positive and finite"),
        (dict(eta2=np.r_[np.ones(9), math.inf]),
         "active large-scale gains must be positive and finite"),
    ], ids=["2d-eta", "zero-relay-noise", "negative-dest-noise", "float-r", "bool-r",
            "nan-relay-noise", "infinite-dest-noise", "nan-gain", "infinite-gain"])
    def test_malformed_inputs_rejected(self, kw, fragment):
        with pytest.raises(ValueError, match=fragment):
            unit_inputs(e_user=1.0, **kw)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            unit_inputs(e_user=-1.0)
