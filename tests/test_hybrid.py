"""Processing stage: quantizer, analog beamformers, normalization, penalties."""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import assert_same_bits, kernel_alpha, make_channels, make_processor
from hybridrelay import (
    QuantizationSpec,
    SystemConfig,
    build_analog,
    hybrid,
    metrics,
    quantize_phase,
    sinc_penalty,
)
from hybridrelay.metrics import _block_trials


class TestQuantizer:
    def test_one_bit_rounds_small_phase_to_zero(self):
        assert quantize_phase(0.3, QuantizationSpec(1)) == 0.0

    def test_two_bits_desk_example(self):
        # pi/3 sits between codewords 0 and pi/2, nearer to pi/2.
        q = quantize_phase(np.pi / 3.0, QuantizationSpec(2))
        assert q == pytest.approx(np.pi / 2.0, abs=1e-15)

    def test_midpoint_snaps_upward(self):
        # Exactly between 0 and the first codeword: the higher one wins,
        # keeping the error half-open on the positive side.
        spec = QuantizationSpec(3)
        q = quantize_phase(spec.step, spec)
        assert q == pytest.approx(2.0 * spec.step, abs=1e-15)

    def test_array_input(self):
        spec = QuantizationSpec(2)
        q = quantize_phase(np.array([0.0, np.pi / 3.0, np.pi]), spec)
        np.testing.assert_allclose(q, [0.0, np.pi / 2.0, np.pi], atol=1e-15)

    def test_non_finite_phase_gives_nan_without_warning(self):
        # As build_analog's non-finite rule; the suite runs with
        # filterwarnings = error, so numpy's remainder warning would raise.
        spec = QuantizationSpec(2)
        assert np.isnan(quantize_phase(np.inf, spec))
        q = quantize_phase(np.array([np.inf, -np.inf, np.nan, np.pi / 3.0]), spec)
        assert np.isnan(q[:3]).all()
        assert q[3] == quantize_phase(np.pi / 3.0, spec)

    @pytest.mark.parametrize("bits", [1, 2, 12])
    def test_codeword_index_keeps_its_bits_and_leaves_phi_alone(self, rng, bits):
        # Without `out` the index is built in the divide's own array, so
        # the call allocates one array of phi's size, not two; with out=phi
        # it is built in phi.
        quant = QuantizationSpec(bits)
        phi = rng.uniform(-np.pi, np.pi, (3, 1024, 5))
        phi[0, :3, 0] = [-np.pi, 0.0, np.pi]
        before = phi.copy()
        want = np.floor(phi / (2.0 * quant.step) + 0.5)
        tracemalloc.start()
        try:
            index = hybrid._codeword_index(phi, quant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * phi.nbytes
        assert_same_bits(index, want)
        assert_same_bits(phi, before)
        assert hybrid._codeword_index(phi, quant, out=phi) is phi
        assert_same_bits(phi, want)
        scalar = hybrid._codeword_index(0.3, quant)
        assert scalar == math.floor(0.3 / (2.0 * quant.step) + 0.5)

    def test_bits_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            QuantizationSpec(0)

    @pytest.mark.parametrize("bits", [1024, 2.5, True],
                             ids=["beyond-float-range", "fraction", "bool"])
    def test_bits_outside_1_to_1023_rejected(self, bits):
        # step divides by 2**bits, and 2**1024 is beyond the float range; a
        # fractional bit count has no codeword table.  The codebook and the
        # scenario reject both before any use.
        with pytest.raises(ValueError, match="1023"):
            QuantizationSpec(bits)
        with pytest.raises(ValueError, match="quant_bits"):
            SystemConfig(n_antennas=16, quant_bits=bits)
        assert QuantizationSpec(1023).step == math.pi / 2.0 ** 1023

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.integers(min_value=1, max_value=8),
        phi=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_error_bounded_and_codeword_integral(self, bits, phi):
        spec = QuantizationSpec(bits)
        spacing = 2.0 * spec.step
        q = quantize_phase(phi, spec)
        err = np.mod(phi, 2.0 * np.pi) - q
        # Error magnitude never exceeds half a codeword spacing (modulo
        # float rounding at midpoints), and the output is on the grid.
        assert abs(err) <= spec.step + 1e-9
        assert abs(q / spacing - round(q / spacing)) < 1e-9

    def test_error_uniform_over_cell(self):
        # Uniform phases -> quantization error uniform on [-step, step).
        from scipy import stats

        spec = QuantizationSpec(3)
        rng = np.random.default_rng(42)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=1_000_000)
        err = phi - quantize_phase(phi, spec)
        cdf = lambda e: (e + spec.step) / (2.0 * spec.step)
        assert stats.kstest(err, cdf).statistic < 0.005


class TestBuildAnalog:
    def test_constant_magnitude(self, rng):
        real = make_channels(rng, 32, 6)
        f = build_analog(real.g1, 6)
        np.testing.assert_allclose(np.abs(f), 1.0 / math.sqrt(32), rtol=1e-12)

    def test_phase_conjugate_match(self, rng):
        # f[i, j] * exp(+1j * angle(g[j, i])) collapses to the real constant
        # 1/sqrt(N) when the phases match exactly.
        real = make_channels(rng, 16, 4)
        f = build_analog(real.g1, 4)
        prod = f * np.exp(1j * np.angle(real.g1).T)
        np.testing.assert_allclose(prod, 1.0 / math.sqrt(16), atol=1e-14)

    def test_fewer_chains_than_pairs(self, rng):
        real = make_channels(rng, 16, 6)
        f = build_analog(real.g1, 4)
        assert f.shape == (4, 16)
        full = build_analog(real.g1, 6)
        np.testing.assert_array_equal(f, full[:4])

    def test_chain_count_validated(self, rng):
        real = make_channels(rng, 16, 4)
        # A bool or a float used to build one chain or fail in slicing.
        for n_chains in (0, 5, True, 2.0):
            with pytest.raises(ValueError, match="n_chains"):
                build_analog(real.g1, n_chains)

    @pytest.mark.parametrize("g", [np.ones(4), np.ones(())], ids=["vector", "scalar"])
    def test_channel_of_fewer_than_two_dimensions_rejected(self, g):
        with pytest.raises(ValueError, match=re.escape(f"got shape {g.shape}")):
            build_analog(g, 1)

    @pytest.mark.parametrize("bits", [1, 2, 3, 8, 30])
    def test_quantized_entries_near_continuous(self, rng, bits):
        # Chord length of a phase error delta is 2*sin(delta/2) <= delta,
        # so each quantized entry sits within step/sqrt(N) of the
        # continuous one; at 30 bits the two are numerically identical.
        real = make_channels(rng, 24, 5)
        cont = build_analog(real.g1, 5)
        quant = build_analog(real.g1, 5, QuantizationSpec(bits))
        bound = QuantizationSpec(bits).step / math.sqrt(24) + 1e-12
        assert np.max(np.abs(quant - cont)) <= bound

    @pytest.mark.parametrize("bits", [None, 1, 2, 3, 10, 11, 12, 13, 14])
    def test_matches_exp_of_snapped_phase(self, rng, bits):
        # The stage against its definition exp(-1j * snap(angle(g))) / sqrt(N),
        # on a stack of trials holding zeros and phases where codewords tie.
        # A stage reads its codeword table when 2**bits is at most its size:
        # the stack holds 12 288 phases and each trial 4 096, so bits 1-12
        # read it for both, 13 for the stack only, and 14 for neither.
        g = np.stack([make_channels(rng, 1024, 4).g1 for _ in range(3)])
        g[0, :9, 0] = [0, 1, 1 + 1j, 1j, -1 + 1j, -1, complex(-1, -0.0), -1 - 1j, -1j]
        g[1, 3, 2] = 0.0
        g[2, 7, 1] = complex(-0.0, -0.0)  # angle() gives -pi; the stage's rule, phase 0
        before = g.copy()
        quant = QuantizationSpec(bits) if bits is not None else None
        phase = np.where(g == 0, 0.0, np.angle(g))
        if quant is not None:
            phase = quantize_phase(phase, quant)
        want = np.swapaxes(np.exp(-1j * phase), -1, -2) / 32.0
        got = build_analog(g, 4, quant)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        for trial in range(3):
            np.testing.assert_array_equal(got[trial], build_analog(g[trial], 4, quant))
        assert_same_bits(g, before)  # the index is built in place, never on g

    @pytest.mark.parametrize("chains", [4, 6], ids=["fewer-chains", "all-chains"])
    def test_continuous_is_conj_over_scaled_magnitude(self, rng, chains):
        # Bit for bit the textbook form, on a stack of trials and on each
        # trial alone.  Trial 0 holds zeros (phase 0, no warning) and trial
        # 1 a NaN, which must not reach trial 0's zeros.
        g = np.stack([make_channels(rng, 16, 6).g1 for _ in range(3)])
        g[0, [2, 7], [0, 3]] = 0.0
        g[1, 5, 1] = complex(np.nan, 0.0)
        gs = g[..., :chains]
        with np.errstate(invalid="ignore", divide="ignore"):
            want = np.conj(gs) / (np.abs(gs) * math.sqrt(16))
        want[0, [2, 7], [0, 3]] = 1.0 / math.sqrt(16)
        got = build_analog(g, chains)
        assert got.shape == (3, chains, 16)
        assert_same_bits(got, np.swapaxes(want, -1, -2))
        assert np.all(np.angle(got[0, [0, 3], [2, 7]]) == 0.0)
        for trial in range(3):
            assert_same_bits(build_analog(g[trial], chains), got[trial])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    @pytest.mark.parametrize("shape", [(64, 10), (3, 256, 10), (4096, 10)])
    @pytest.mark.parametrize("bits", [None, 2, 12])
    def test_channel_of_another_dtype_gives_its_complex128_casts_stage(self, rng, dtype, shape,
                                                                       bits):
        # Precision is hybrid's rule: a float64 or complex64 channel gives
        # the complex128 stage of its cast.  At 64 x 10, 12 bits take the
        # direct exp branch; at 4096 x 10 they read the codeword table.
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = (x.real if dtype is np.float64 else x).astype(dtype)
        quant = QuantizationSpec(bits) if bits is not None else None
        got = build_analog(g, 10, quant)
        assert got.dtype == np.complex128
        assert_same_bits(got, build_analog(g.astype(complex), 10, quant))

    @pytest.mark.parametrize("bits", [None, 1, 2, 12, 13, 14])
    @pytest.mark.parametrize("shape", [(64, 10), (4096, 10), (3, 4, 2), (3, 2048, 2)],
                             ids=["64x10", "4096x10", "3x4x2", "3x2048x2"])
    def test_nan_channel_entry_gives_nan_stage_entry(self, rng, shape, bits):
        # Every branch: continuous, the codeword table (bits up to log2 of
        # the stage's size) and the direct exp.  A NaN or infinite entry, in
        # either part, gives a NaN entry and no warning (filterwarnings =
        # error); every other entry keeps the bits of the same channel with
        # that entry finite.  An infinite entry once had a finite angle, so
        # a quantized stage matched it with a real codeword.
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        where = (1, 2, 1) if len(shape) == 3 else (2, 1)
        quant = QuantizationSpec(bits) if bits is not None else None
        want = build_analog(x, shape[-1], quant)
        at = where[:-2] + (where[-1], where[-2])
        for entry in (complex(np.nan, 0.5), complex(np.inf, 0.5), complex(0.5, -np.inf),
                      complex(-np.inf, np.inf)):
            g = x.copy()
            g[where] = entry
            got = build_analog(g, shape[-1], quant)
            assert np.isnan(got[at])
            got[at] = want[at]
            assert_same_bits(got, want)

    def test_quantized_phases_on_grid(self, rng):
        real = make_channels(rng, 16, 4)
        spec = QuantizationSpec(2)
        f = build_analog(real.g1, 4, spec)
        ratio = np.angle(f * math.sqrt(16)) / (2.0 * spec.step)
        frac = np.abs(ratio - np.round(ratio))
        assert np.max(frac) < 1e-9


class TestAnalogStages:
    """hybrid._analog_stages: build_analog at several resolutions on one phase."""

    QUANTS = [None, 1, 2, 3, 12, 13, 14]

    @staticmethod
    def specs(bits_list):
        return [QuantizationSpec(b) if b is not None else None for b in bits_list]

    @staticmethod
    def channel(rng, layout):
        """A channel, its chain count and the entry a special-entry test plants.

        At 4096 x 10 bits 12-14 read the codeword table; at 3 x 1024 x 2
        bits 13 and 14 take the direct exp.
        """
        wide = rng.standard_normal((4096, 20)) + 1j * rng.standard_normal((4096, 20))
        return {
            "2-d": (wide[:, :10].copy(), 10, (2, 1)),
            "stack": (wide.reshape(20, 1024, 4)[:3, :, :2].copy(), 2, (1, 5, 1)),
        }[layout]

    @pytest.mark.parametrize("bits_list", [
        QUANTS, QUANTS[::-1], [2, None, 2, 1, 2, 13, 13], [3], [None, None], [],
    ], ids=["ascending", "descending", "repeats", "one-quantized", "continuous", "none"])
    @pytest.mark.parametrize("layout", ["2-d", "stack", "fewer-chains", "strided",
                                        "fortran", "float64", "complex64"])
    def test_each_stage_equals_build_analog_bitwise(self, monkeypatch, rng, bits_list,
                                                     layout):
        # Bits 12-14 read the codeword table on some of these channels and
        # take the direct exp on others (3 x 1024 x 2 entries hold a table of
        # 2**12, not 2**13).  The channel is left unchanged, and its phase is
        # computed once if any stage is quantized, never otherwise.
        wide = rng.standard_normal((4096, 20)) + 1j * rng.standard_normal((4096, 20))
        g, chains = {
            "2-d": (wide[:, :10].copy(), 10),
            "stack": (wide.reshape(20, 1024, 4)[:3, :, :2].copy(), 2),
            "fewer-chains": (wide[:, :10].copy(), 4),
            "strided": (wide[:, ::2], 10),
            "fortran": (np.asfortranarray(wide[:, :10]), 10),
            "float64": (wide[:, :10].real.copy(), 10),
            "complex64": (wide[:, :10].astype(np.complex64), 10),
        }[layout]
        before = g.copy()
        phase, calls = hybrid._phase, []
        monkeypatch.setattr(hybrid, "_phase", lambda gs: calls.append(1) or phase(gs))
        quants = self.specs(bits_list)
        stages = list(hybrid._analog_stages(g, chains, quants))
        assert len(calls) == (1 if any(q is not None for q in quants) else 0)
        monkeypatch.undo()
        assert len(stages) == len(quants)
        for stage, quant in zip(stages, quants):
            assert_same_bits(stage, build_analog(g, chains, quant))
        assert_same_bits(g, before)

    @pytest.mark.parametrize("entry", [
        complex(np.nan, 0.5), complex(np.inf, 0.5), complex(0.5, -np.inf),
        complex(-np.inf, np.inf),
    ], ids=["nan", "inf", "minus-inf-imag", "minus-inf-inf"])
    @pytest.mark.parametrize("layout", ["2-d", "stack"])
    def test_non_finite_entry_is_nan_in_every_stage(self, rng, layout, entry):
        # The one non-finite rule, with no errstate here (filterwarnings =
        # error): the bad entry is NaN in both parts at every resolution and
        # branch (bits 12-14 read the table at 4096 x 10, bits 13 and 14 take
        # the direct exp at 3 x 1024 x 2), and every other entry keeps the
        # bits of the finite channel.  A NaN index once reached the table's
        # integer cast, and an infinite entry once got a real codeword.
        g, chains, where = self.channel(rng, layout)
        at = where[:-2] + (where[-1], where[-2])
        quants = self.specs(self.QUANTS)
        finite = list(hybrid._analog_stages(g, chains, quants))
        g[where] = entry
        for stage, want, quant in zip(hybrid._analog_stages(g, chains, quants), finite, quants):
            assert_same_bits(stage, build_analog(g, chains, quant))
            assert np.isnan(stage[at].real) and np.isnan(stage[at].imag)
            stage[at] = want[at]
            assert_same_bits(stage, want)

    @pytest.mark.parametrize("entry", [
        complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, 0.0),
    ], ids=["plus-minus", "minus-plus", "minus-minus", "plus-plus"])
    @pytest.mark.parametrize("layout", ["2-d", "stack"])
    def test_zero_entry_of_either_sign_is_phase_zero_in_every_stage(self, rng, layout, entry):
        # The one zero rule, with no errstate here: a zero entry gets the
        # stage entry of +1 (phase 0) whatever the signs of its parts, in
        # the continuous, table and direct-exp branches.  The quantized
        # stages once read a real part of -0.0 through arctan2 as phase pi.
        g, chains, where = self.channel(rng, layout)
        quants = self.specs(self.QUANTS)
        g[where] = complex(0.0, 0.0)
        plus = list(hybrid._analog_stages(g, chains, quants))
        g[where] = entry
        for stage, want, quant in zip(hybrid._analog_stages(g, chains, quants), plus, quants):
            assert_same_bits(stage, want)
            assert_same_bits(stage, build_analog(g, chains, quant))

    @pytest.mark.parametrize("entry,same_phase", [
        (complex(1e308, 1e308), 1 + 1j), (complex(1.7e308, 1.7e308), 1 + 1j),
        (complex(5e-324, 5e-324), 1 + 1j), (complex(1e-310, 0.0), 1.0),
    ], ids=["1e308", "1.7e308", "5e-324", "1e-310"])
    @pytest.mark.parametrize("layout", ["2-d", "stack"])
    def test_entry_beyond_the_float_range_keeps_its_phase(self, rng, layout, entry,
                                                          same_phase):
        # |g| sqrt(N), or its reciprocal, of these finite entries leaves the
        # float range: the continuous stage once gave 0, inf - inf j or
        # inf + nan j there, with overflow warnings (filterwarnings = error).
        # Now it gives exp(-1j angle(g)) / sqrt(N), every other entry keeps
        # the bits of the channel without it, and each quantized stage
        # equals that of an entry of the same exact phase, same_phase.
        g, chains, where = self.channel(rng, layout)
        at = where[:-2] + (where[-1], where[-2])
        root = math.sqrt(g.shape[-2])
        quants = self.specs(self.QUANTS)
        g[where] = same_phase
        near = list(hybrid._analog_stages(g, chains, quants))
        g[where] = entry
        for stage, want, quant in zip(hybrid._analog_stages(g, chains, quants), near, quants):
            assert_same_bits(stage, build_analog(g, chains, quant))
            if quant is None:
                assert abs(stage[at] - np.exp(-1j * np.angle(entry)) / root) <= 1e-16
                assert abs(stage[at]) == pytest.approx(1.0 / root, rel=0.0, abs=1e-16)
                stage[at] = want[at]
            assert_same_bits(stage, want)

    @pytest.mark.parametrize("entry,rescaled", [
        (2.0 ** 1021, False), (np.nextafter(2.0 ** 1021, np.inf), True),
        (2.0 ** -1023, False), (np.nextafter(2.0 ** -1023, 0.0), True),
    ], ids=["2^1021", "above-2^1021", "2^-1023", "below-2^-1023"])
    @pytest.mark.parametrize("layout", ["2-d", "stack"])
    def test_edges_of_the_one_entry_test(self, monkeypatch, rng, layout, entry, rescaled):
        # At N = 4, sqrt(N) = 2 is exact, so m = |g| sqrt(N) is 2**1022 for
        # 2**1021 and 2**-1022 for 2**-1023: the two edges of the range
        # that the one test keeps, where the continuous stage is the plain
        # conj(g) * (1 / m).  One ulp further out the entry is rescaled
        # (np.ldexp sees it) and keeps its phase.  No errstate here
        # (filterwarnings = error).
        shape, chains, where = {"2-d": ((4, 3), 3, (2, 1)),
                                "stack": ((3, 4, 2), 2, (1, 3, 1))}[layout]
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        at = where[:-2] + (where[-1], where[-2])
        quants = self.specs(self.QUANTS)
        g[where] = 1.0
        unit = list(hybrid._analog_stages(g, chains, quants))
        g[where] = entry
        ldexp, scaled = np.ldexp, []
        monkeypatch.setattr(np, "ldexp", lambda x, e, out: scaled.append(x.size)
                            or ldexp(x, e, out=out))
        stages = list(hybrid._analog_stages(g, chains, quants))
        monkeypatch.undo()
        assert set(scaled) == ({1} if rescaled else set())
        gs = g[..., :chains]
        for stage, want, quant in zip(stages, unit, quants):
            assert_same_bits(stage, build_analog(g, chains, quant))
            if quant is None:
                if rescaled:
                    assert abs(stage[at] - np.exp(-1j * np.angle(entry)) / 2.0) <= 1e-16
                else:
                    direct = np.conj(gs) * (1.0 / (np.abs(gs) * 2.0))
                    assert_same_bits(stage, np.swapaxes(direct, -1, -2))
                stage[at] = want[at]
            assert_same_bits(stage, want)

    def test_fuzz_over_the_whole_float_range(self):
        # Parts with exponents over the whole float range, zeros of either
        # sign, NaN and inf mixed in, at every branch (bits 1 and 2 read the
        # table, 13 and 20 take the direct exp), with no warning
        # (filterwarnings = error).  A zero entry takes phase 0.  A
        # rescaled entry is not compared bit for bit with an in-range one:
        # arctan2 is not exactly scale-invariant.
        rng = np.random.default_rng(20151118)
        quants = self.specs([None, 1, 2, None, 13, 20])
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        n, chains = 16, 3
        for trial in range(200):
            shape = (2,) + ((n, 4) if trial % 2 == 0 else (3, n, 4))
            parts = np.ldexp(rng.uniform(0.5, 1.0, shape) * rng.choice([-1.0, 1.0], shape),
                             rng.integers(-1074, 1024, shape))
            special = rng.random(shape) < 0.05
            parts[special] = rng.choice(specials, special.sum())
            g = np.empty(shape[1:], dtype=complex)
            g.real, g.imag = parts
            gs = g[..., :chains]
            finite = np.isfinite(gs)
            angle = np.angle(np.where(gs == 0, 1.0, gs))[finite]
            for stage, quant in zip(hybrid._analog_stages(g, chains, quants), quants):
                stage = np.swapaxes(stage, -1, -2)
                assert np.isnan(stage[~finite].real).all()
                assert np.isnan(stage[~finite].imag).all()
                got = stage[finite]
                if quant is None:
                    assert np.abs(got - np.exp(-1j * angle) / math.sqrt(n)).max() <= 1e-16
                else:
                    assert np.abs(np.abs(got) - 1.0 / math.sqrt(n)).max() <= 1e-16
                    error = np.abs(np.angle(got * np.exp(1j * angle)))
                    assert error.max() <= quant.step + 1e-12

    def test_holds_no_stage_it_has_yielded(self, rng):
        # A stage the caller has dropped is freed before the next is built.
        g = rng.standard_normal((256, 4)) + 1j * rng.standard_normal((256, 4))
        stages = hybrid._analog_stages(g, 4, self.specs([1, None, 2, 3]))
        stage = next(stages)
        for _ in range(3):
            freed = weakref.ref(stage.base)
            del stage
            stage = next(stages)
            assert freed() is None

    def test_checks_run_at_the_first_request(self, rng):
        g = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        stages = hybrid._analog_stages(g, 5, self.specs([None]))
        with pytest.raises(ValueError, match="n_chains"):
            next(stages)


class TestAlpha:
    def test_matches_reference(self, rng):
        for bits in (None, 1, 2):
            real, cfg, ref = make_processor(rng, 24, 5, quant_bits=bits)
            assert kernel_alpha(real, cfg) == pytest.approx(ref.alpha, rel=1e-12)

    def test_relay_power_identity(self, rng):
        # The whole point of alpha: average transmit power == p_relay.
        cfg = SystemConfig(
            n_antennas=24, n_pairs=5, n_rx_chains=5, n_tx_chains=5,
            p_user=2.5, p_relay=3.5, var_relay_noise=0.7,
        )
        real = make_channels(rng, 24, 5)
        b = oracles.relay_matrix(real, cfg, alpha=kernel_alpha(real, cfg))
        power = oracles.relay_output_power(b, real.g1, 2.5, 0.7)
        assert power == pytest.approx(3.5, rel=1e-10)

    def test_power_of_four_scaling_is_exact(self, rng):
        # Scaling p_relay by 4 moves only powers of two through sqrt, so
        # alpha doubles bit-for-bit.
        real = make_channels(rng, 16, 4)
        cfg1 = SystemConfig(n_antennas=16, n_pairs=4, n_rx_chains=4,
                            n_tx_chains=4, p_relay=1.0)
        cfg4 = SystemConfig(n_antennas=16, n_pairs=4, n_rx_chains=4,
                            n_tx_chains=4, p_relay=4.0)
        assert kernel_alpha(real, cfg4) == 2.0 * kernel_alpha(real, cfg1)

    def test_sqrt_homogeneity_in_p_relay(self, rng):
        real = make_channels(rng, 16, 4)
        base = SystemConfig(n_antennas=16, n_pairs=4, n_rx_chains=4,
                            n_tx_chains=4, p_relay=1.0)
        scaled = SystemConfig(n_antennas=16, n_pairs=4, n_rx_chains=4,
                              n_tx_chains=4, p_relay=3.7)
        ratio = kernel_alpha(real, scaled) / kernel_alpha(real, base)
        assert ratio == pytest.approx(math.sqrt(3.7), rel=1e-12)

    @pytest.mark.parametrize("k_r,k_t", [(2, 4), (4, 3), (1, 1)])
    def test_fewer_chains_match_reference(self, rng, k_r, k_t):
        # Fewer chains than pairs leave A and B rank-deficient; the trace
        # identities of the normalization hold for any Hermitian A, B.
        for bits in (None, 2):
            cfg = SystemConfig(n_antennas=24, n_pairs=4, n_rx_chains=k_r, n_tx_chains=k_t,
                               quant_bits=bits, p_user=1.3, p_relay=2.1,
                               var_relay_noise=0.9)
            real = make_channels(rng, 24, 4, eta1=[1.0, 0.3, 2.0, 0.7],
                                 eta2=[0.5, 1.0, 1.5, 2.5])
            f1, f2 = oracles.analog_stages(real, cfg)
            expect = oracles.alpha_reference(f1 @ real.g1, f2 @ real.g2, f1, f2, 1.3, 2.1, 0.9)
            assert kernel_alpha(real, cfg) == pytest.approx(expect, rel=1e-12)
            expect = oracles.alpha_full_reference(real.g1, real.g2, 1.3, 2.1, 0.9)
            assert kernel_alpha(real, cfg, "full_digital") == pytest.approx(expect, rel=1e-12)

    def test_nonfinite_input_gives_nan(self, rng):
        real, cfg, ref = make_processor(rng, 16, 4)
        g1 = real.g1.copy()
        g1[0, 0] = np.nan
        hop1 = hybrid._hop_grams(g1, ref.f1)
        hop2 = hybrid._hop_grams(real.g2, ref.f2)
        alpha_sq, _ = metrics._gram_sinrs(hop1, hop2, cfg)
        assert np.isnan(alpha_sq)


class TestFullDigital:
    CFG = SystemConfig(n_antennas=24, n_pairs=5, n_rx_chains=5, n_tx_chains=5,
                       p_user=1.3, p_relay=2.1, var_relay_noise=0.9)

    def test_alpha_matches_reference(self, rng):
        real = make_channels(rng, 24, 5)
        expect = oracles.alpha_full_reference(real.g1, real.g2, 1.3, 2.1, 0.9)
        got = kernel_alpha(real, self.CFG, "full_digital")
        assert got == pytest.approx(expect, rel=1e-12)

    def test_relay_power_identity(self, rng):
        real = make_channels(rng, 24, 5)
        alpha = kernel_alpha(real, self.CFG, "full_digital")
        b = oracles.relay_matrix_full(real, self.CFG, alpha=alpha)
        power = oracles.relay_output_power(b, real.g1, 1.3, 0.9)
        assert power == pytest.approx(2.1, rel=1e-10)


class TestDot:
    """hybrid._dot is a @ b bit for bit, through np.dot (2-D, one slice) and @."""

    @pytest.mark.parametrize("stack", [None, 1, 3, 50])
    @pytest.mark.parametrize("k,k_r,k_t", [(10, 10, 10), (4, 3, 4), (3, 2, 1)])
    def test_equals_matmul_bitwise(self, rng, stack, k, k_r, k_t):
        # K_t = 1 gives (1, N) @ (N, K) and (1, N) @ (N, 1): BLAS's gemv
        # and dot paths instead of gemm.  A stack of None is one 2-D draw.
        n = 64
        shape = (n, k) if stack is None else (stack, n, k)
        for chains in (k_r, k_t):
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            f = build_analog(g, chains)
            g_h = np.conj(np.swapaxes(g, -1, -2))
            f_h = np.swapaxes(np.conj(f), -1, -2)
            for a, b in [(f, g), (f, f_h), (g_h, g)]:
                assert_same_bits(hybrid._dot(a, b), a @ b)


class TestGram:
    """hybrid._gram: the complex product up to _LARGE_SLICE entries, the real view above."""

    @pytest.mark.parametrize("shape", [(64, 10), (1, 64, 10), (50, 16, 3), (1, 1024, 16)])
    def test_small_slice_keeps_the_complex_product_bitwise(self, rng, shape):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        xt = np.swapaxes(x, -1, -2)
        assert_same_bits(hybrid._gram(x), np.conj(xt) @ x)
        assert_same_bits(hybrid._gram(x, conj=True), xt @ np.conj(x))

    @pytest.mark.parametrize("shape", [(2048, 10), (1, 2048, 10), (3, 8192, 3), (16385, 1)])
    @pytest.mark.parametrize("conj", [False, True])
    def test_large_slice_is_exactly_hermitian(self, rng, shape, conj):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        xt = np.swapaxes(x, -1, -2)
        want = xt @ np.conj(x) if conj else np.conj(xt) @ x
        got = hybrid._gram(x, conj)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        np.testing.assert_array_equal(got, np.conj(np.swapaxes(got, -1, -2)))
        assert (np.diagonal(got, axis1=-2, axis2=-1).imag == 0.0).all()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    @pytest.mark.parametrize("shape", [(2048, 10), (1, 4096, 8), (16385, 1),
                                       (64, 10), (3, 256, 10)])
    @pytest.mark.parametrize("conj", [False, True])
    def test_large_slice_of_another_dtype_is_its_complex128_cast(self, rng, dtype, shape, conj):
        # The real view reads float64 pairs: read as it stands, a float64
        # slice gives a (k/2) x (k/2) result and a complex64 one garbage.
        # A small slice's complex product would keep single precision.
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = (x.real if dtype is np.float64 else x).astype(dtype)
        assert_same_bits(hybrid._gram(x, conj), hybrid._gram(x.astype(complex), conj))

    def test_trial_keeps_its_bits_in_any_stack_or_layout(self, rng):
        # A stack of three goes through @, a slice through np.dot, and a
        # strided or Fortran-ordered slice through its contiguous copy.
        wide = rng.standard_normal((3, 2048, 20)) + 1j * rng.standard_normal((3, 2048, 20))
        x = wide[..., ::2]
        alone = hybrid._gram(np.ascontiguousarray(x[1]))
        for other in (hybrid._gram(x)[1], hybrid._gram(x[1:2])[0], hybrid._gram(x[1]),
                      hybrid._gram(np.asfortranarray(x[1]))):
            assert_same_bits(other, alone)

    @pytest.mark.parametrize("k", [1, 3, 10, 16])
    def test_real_view_exactly_where_a_trial_has_a_block_of_its_own(self, monkeypatch, k):
        dot = hybrid._dot
        edge = hybrid._LARGE_SLICE // k  # the largest N with N K <= the limit
        for n in (edge, edge + 1):
            config = SystemConfig(n_antennas=n, n_pairs=k, n_rx_chains=k, n_tx_chains=k)
            dtypes = []
            monkeypatch.setattr(hybrid, "_dot", lambda a, b: dtypes.append(a.dtype) or dot(a, b))
            hybrid._gram(np.ones((1, n, k), dtype=complex))
            monkeypatch.undo()
            assert (dtypes == [np.float64]) == (n > edge) == (_block_trials(config) == 1)


class TestSincPenalty:
    def test_continuous_is_unity(self):
        assert sinc_penalty(None) == 1.0

    def test_frozen_values(self):
        # sin(pi/2)/(pi/2) = 2/pi and sin(pi/4)/(pi/4) = 2*sqrt(2)/pi.
        assert sinc_penalty(QuantizationSpec(1)) == pytest.approx(
            0.6366197723675814, rel=1e-14
        )
        assert sinc_penalty(QuantizationSpec(2)) == pytest.approx(
            0.9003163161571061, rel=1e-14
        )

    def test_monotone_in_bits(self):
        vals = [sinc_penalty(QuantizationSpec(b)) for b in range(1, 10)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1.0
