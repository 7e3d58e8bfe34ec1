"""Large-array convergence diagnostics for the analog stage."""

import math
import os
import platform
import threading

import numpy as np
import pytest

from conftest import fresh_serial_run

from hybridrelay import (
    QuantizationSpec,
    diagnostics,
    hybrid,
    lemma_rng,
    sample_small_scale,
    sinc_penalty,
)
from hybridrelay.diagnostics import (
    DIAG_TOL,
    fh_parts,
    lemma_checks,
    lemma_rows,
    orthonormality_parts,
)
from hybridrelay.hybrid import _gram, build_analog


def lemma_draw(n, k=10, seed=0):
    return sample_small_scale(n, k, lemma_rng(seed, n))


def analog_pair(n, k=10, seed=0, bits=None):
    h = lemma_draw(n, k, seed)
    quant = QuantizationSpec(bits) if bits is not None else None
    return build_analog(h, k, quant), h, quant


class TestOrthonormality:
    def test_rows_have_exactly_unit_norm(self):
        # Each diagonal of F F^H averages N terms that are each exactly 1/N
        # up to rounding, so the deviation is at the float-noise level no
        # matter how small N is.
        for n in (16, 128, 1024):
            f, _, _ = analog_pair(n)
            diag_dev, _, _ = orthonormality_parts(f)
            assert diag_dev < 1e-12

    @pytest.mark.parametrize("bits", [None, 2])
    def test_large_stage_matches_the_complex_product(self, bits):
        # 4096 x 10 entries exceed hybrid._LARGE_SLICE, so F F^H comes from
        # the stage's real view: the complex product's parts up to rounding,
        # with a diagonal that is exactly real.
        f, _, _ = analog_pair(4096, bits=bits)
        p = f @ f.conj().T
        d = np.diagonal(p)
        diag_dev, off_dev, diag_mean = orthonormality_parts(f)
        assert diag_dev <= 1e-15
        assert off_dev == pytest.approx(np.abs(p - np.diag(d)).max(), rel=1e-12)
        assert diag_mean == pytest.approx(d.real.mean(), rel=1e-15)

    def test_off_diagonals_shrink_like_inverse_sqrt_n(self):
        meds = []
        for n in (100, 1000, 10000):
            devs = []
            for seed in range(50):
                f, _, _ = analog_pair(n, seed=seed)
                devs.append(orthonormality_parts(f)[1])
            meds.append(np.median(devs))
        assert meds[0] > meds[1] > meds[2]
        # Two decades of N -> one decade of deviation, within MC slack.
        ratio = meds[0] / meds[2]
        assert 3.3 < ratio < 30.0

    @pytest.mark.parametrize("bits", [None, 1, 2])
    def test_diag_mean_is_mean_row_power(self, bits):
        f, _, _ = analog_pair(256, bits=bits)
        row_power = np.sum(np.abs(f) ** 2, axis=1).mean()
        assert orthonormality_parts(f)[2] == pytest.approx(row_power, abs=1e-14)

    def test_report_passes_at_moderate_size(self):
        row, _ = lemma_checks(lemma_draw(256), 10, None)
        assert row["passed"] is True
        assert row["metric"] == "orthonormality"
        assert row["bound"] == pytest.approx(5.0 / 16.0)


class TestFhConvergence:
    def test_continuous_diagonal_approaches_unity(self):
        f, h, _ = analog_pair(20000)
        _, _, diag_mean = fh_parts(f, h)
        assert diag_mean == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_quantized_diagonal_approaches_sinc_penalty(self, bits):
        # Phase errors uniform on [-step, step) thin the coherent average
        # by exactly E[cos(err)] = sinc(step).
        f, h, quant = analog_pair(20000, bits=bits)
        _, _, diag_mean = fh_parts(f, h, sinc_penalty(quant))
        assert diag_mean == pytest.approx(sinc_penalty(quant), rel=0.02)

    def test_deviation_decreases_with_n(self):
        devs = []
        for n in (100, 1000, 10000):
            per_seed = []
            for seed in range(20):
                f, h, _ = analog_pair(n, seed=seed)
                diag_dev, off_dev, _ = fh_parts(f, h)
                per_seed.append(max(diag_dev, off_dev))
            devs.append(np.median(per_seed))
        assert devs[0] > devs[1] > devs[2]

    def test_report_fields(self):
        f, h, _ = analog_pair(400)
        _, row = lemma_checks(h, 10, None)
        assert row["metric"] == "fh_convergence"
        assert row["bound"] == pytest.approx(0.25)
        assert (row["diag_deviation"], row["offdiag_deviation"],
                row["diag_mean"]) == fh_parts(f, h)
        deviation = max(row["diag_deviation"], row["offdiag_deviation"])
        assert row["passed"] == (deviation <= row["bound"])


def orthonormality_reference(f):
    """orthonormality_parts as it stood on its own: F F^H minus its diagonal."""
    p = _gram(f.T, conj=True)
    d = np.diagonal(p)
    off = np.abs(p - np.diag(d))
    return float(np.abs(d - 1.0).max()), float(off.max()), float(d.real.mean())


def fh_reference(f, h, quant):
    """fh_parts as it stood on its own: F H with its first r diagonal entries zeroed."""
    m = f @ h / math.sqrt(h.shape[0] * math.pi / 4.0)
    r = min(m.shape)
    idx = np.arange(r)
    diag = m[idx, idx]
    rest = m.copy()
    rest[idx, idx] = 0.0
    off = float(np.abs(rest).max()) if rest.size > r else 0.0
    return float(np.abs(diag - sinc_penalty(quant)).max()), off, float(diag.real.mean())


class TestIdentityRule:
    """Both lemma parts measure a matrix against a scaled identity by one rule."""

    @pytest.mark.parametrize("n,k,chains", [(64, 3, 1), (64, 6, 3), (4096, 10, 10)],
                             ids=["one-chain", "fewer-chains", "large-slice"])
    @pytest.mark.parametrize("bits", [None, 2])
    def test_parts_keep_their_bits(self, n, k, chains, bits):
        # One chain makes F F^H 1 x 1, with no off-diagonal entry; fewer
        # chains than pairs make F H rectangular; 4096 x 10 entries take
        # the real-view Gram.
        h = lemma_draw(n, k)
        quant = QuantizationSpec(bits) if bits is not None else None
        f = build_analog(h, chains, quant)
        for got, want in ((orthonormality_parts(f), orthonormality_reference(f)),
                          (fh_parts(f, h, sinc_penalty(quant)), fh_reference(f, h, quant))):
            assert [x.hex() for x in got] == [x.hex() for x in want]
        if chains == 1:
            assert orthonormality_parts(f)[1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64])
    @pytest.mark.parametrize("bits", [None, 2])
    def test_large_draw_of_another_dtype_matches_the_complex128_cast(self, dtype, bits):
        # 4096 x 10 entries take the real-view Gram, which must not read a
        # float64 or complex64 draw as float64 pairs; 64 x 10 entries take
        # the complex product.  The stage and F F^H are complex128 whatever
        # the draw's dtype, so a complex64 draw passes where its cast does.
        for n in (64, 4096):
            h = lemma_draw(n)
            h = (h.real if dtype is np.float64 else h).astype(dtype)
            assert lemma_checks(h, 10, bits) == lemma_checks(h.astype(complex), 10, bits)


class TestSweep:
    """lemma_checks over the array sizes of a sweep, as verify-lemmas runs it."""

    def test_reports_in_requested_order(self):
        rows = [lemma_checks(lemma_draw(n), 10, None) for n in (64, 256)]
        assert [ortho["bound"] for ortho, _ in rows] == [5.0 / 8.0, 5.0 / 16.0]
        assert all(
            (ortho["metric"], fh["metric"]) == ("orthonormality", "fh_convergence")
            for ortho, fh in rows
        )

    def test_passed_flag_matches_deviation_and_bound(self):
        for n in (100, 900):
            for bits in (None, 2):
                ortho, fh = lemma_checks(lemma_draw(n), 10, bits)
                # Python bools: the CSV writes them as true/false.
                assert type(ortho["passed"]) is bool
                assert type(fh["passed"]) is bool
                assert ortho["passed"] == (
                    ortho["diag_deviation"] <= DIAG_TOL
                    and ortho["offdiag_deviation"] <= ortho["bound"]
                )
                assert fh["passed"] == (
                    max(fh["diag_deviation"], fh["offdiag_deviation"])
                    <= fh["bound"]
                )

    def test_rows_take_one_chain_count_for_both_sides(self):
        # Fewer chains than SystemConfig's default need no transmit-side setting.
        rows = lemma_rows([64], [None], 2, n_pairs=3, n_rx_chains=3)
        expected = [
            {**row, "N": 64, "beta": None, "seed": seed}
            for seed in (0, 1) for row in lemma_checks(lemma_draw(64, 3, seed), 3, None)
        ]
        assert rows == sorted(expected, key=lambda r: (r["metric"], r["seed"]))

    def test_each_beta_computes_its_sinc_penalty_once_per_call(self, monkeypatch):
        # Two sizes of three seeds at three betas: 18 stage checks, 3 penalties.
        penalty, calls = diagnostics.sinc_penalty, []
        monkeypatch.setattr(diagnostics, "sinc_penalty",
                            lambda quant: calls.append(quant) or penalty(quant))
        lemma_rows([16, 32], [None, 1, 2], 3)
        assert calls == [None, QuantizationSpec(1), QuantizationSpec(2)]

    @pytest.mark.parametrize("betas", [[None], [2], [None, 1, 2, 3], [12, 1, None, 2]])
    def test_each_draw_computes_its_phase_once_for_all_betas(self, monkeypatch, betas):
        # A lemma job measures every beta of its draw on one channel phase,
        # computed once if any beta is quantized and never otherwise, and
        # each beta's rows equal lemma_checks of that beta alone.
        phase, calls = hybrid._phase, []
        monkeypatch.setattr(hybrid, "_phase", lambda gs: calls.append(1) or phase(gs))
        monkeypatch.setenv("SIM_THREADS", "1")
        rows = lemma_rows([64, 4096], betas, 2)
        assert len(calls) == (4 if any(b is not None for b in betas) else 0)
        monkeypatch.undo()
        expected = [
            {**row, "N": n, "beta": beta, "seed": seed}
            for n in (64, 4096) for seed in (0, 1) for beta in betas
            for row in lemma_checks(lemma_draw(n, seed=seed), 10, beta)
        ]
        assert rows == sorted(expected, key=lambda r: (
            r["metric"], r["N"], -1 if r["beta"] is None else r["beta"], r["seed"]))

    def test_nan_draw_fails_orthonormality_at_every_resolution(self):
        # A NaN entry once became a real codeword on the table branch, so a
        # 2-bit stage passed orthonormality where the continuous one failed;
        # an infinite entry did so at every quantized resolution.  Both rows
        # fail, without a numpy warning (filterwarnings = error).
        for entry in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            h = lemma_draw(64)
            h[5, 3] = entry
            for bits in (None, 1, 2, 12):
                for row in lemma_checks(h, 10, bits):
                    assert np.isnan(row["diag_deviation"])
                    assert row["passed"] is False

    def test_non_finite_draw_fails_every_row_of_the_table(self, monkeypatch):
        # The table's stages follow the one non-finite rule too: a draw with
        # a NaN and an infinite entry fails both rows at every beta (12 bits
        # take the direct exp at N = 64 and read the table at 4096), with no
        # numpy warning, and each row equals lemma_checks of its beta.  The
        # table's 2-bit stage once cast the NaN's index to an integer.
        def planted(n, k, rng):
            h = sample_small_scale(n, k, rng)
            h[5, 3] = np.nan
            h[9, 1] = complex(np.inf, 0.5)
            return h

        monkeypatch.setattr(diagnostics, "sample_small_scale", planted)
        monkeypatch.setenv("SIM_THREADS", "1")
        rows = lemma_rows([64, 4096], [None, 1, 2, 12], 1)
        assert len(rows) == 2 * 2 * 4
        for row in rows:
            assert np.isnan(row["diag_deviation"])
            assert row["passed"] is False
            h = planted(row["N"], 10, lemma_rng(0, row["N"]))
            want = {r["metric"]: r for r in lemma_checks(h, 10, row["beta"])}[row["metric"]]
            np.testing.assert_equal(row, {**want, "N": row["N"], "beta": row["beta"], "seed": 0})

    def test_rows_equal_for_one_and_two_workers(self, monkeypatch):
        # Each (N, seed) draw is one pool job: one worker draws inline in
        # the calling thread, two draw on the pool, and every value agrees.
        orig, threads = diagnostics.sample_small_scale, []

        def recording(*args):
            threads.append(threading.get_ident())
            return orig(*args)

        monkeypatch.setattr(diagnostics, "sample_small_scale", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        args = [64, 1024, 4096], [None, 1, 2, 12], 3
        monkeypatch.setenv("SIM_THREADS", "1")
        serial = lemma_rows(*args)
        assert threads == [threading.get_ident()] * 9
        threads.clear()
        monkeypatch.setenv("SIM_THREADS", "2")
        pooled = lemma_rows(*args)
        assert len(threads) == 9 and threading.get_ident() not in threads
        assert len(serial) == 2 * 3 * 4 * 3
        assert pooled == serial

    def test_draws_queue_largest_n_first(self, monkeypatch):
        # One pool job per (N, seed) draw: every N = 4096 seed, ascending,
        # then 1024's and 64's, the engine's largest-array-first rule.
        queued, pool_map = [], diagnostics._pool_map
        monkeypatch.setattr(diagnostics, "_pool_map",
                            lambda fn, jobs: queued.append(jobs) or pool_map(fn, jobs))
        lemma_rows([64, 1024, 4096], [None, 1, 2, 12], 3)
        assert queued == [[(n, s) for n in (4096, 1024, 64) for s in range(3)]]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the pool changes glibc's allocator settings only")
    def test_repeat_library_call_keeps_its_draws_in_the_heap(self):
        # The pool's allocator setting reaches a caller of the library that
        # never runs the command line: with glibc's default thresholds the
        # second call faulted its N = 16384 draws in again, about 3 800
        # minor faults.
        faults = fresh_serial_run("""
            import resource
            from hybridrelay.diagnostics import lemma_rows

            lemma_rows([4096, 16384], [None, 1], 2)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            lemma_rows([4096, 16384], [None, 1], 2)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        assert int(faults) <= 300

    def test_non_integral_counts_fail_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(diagnostics, "sample_small_scale",
                            lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="n_seeds must be a positive integer, got 2.5"):
            lemma_rows([16], [None], 2.5, n_pairs=3, n_rx_chains=3)
        with pytest.raises(ValueError, match="n_seeds must be a positive integer, got True"):
            lemma_rows([16], [None], True, n_pairs=3, n_rx_chains=3)
        with pytest.raises(ValueError,
                           match=r"n_values\[0\] must be a positive integer, got 16.0"):
            lemma_rows([16.0], [None], 2, n_pairs=3, n_rx_chains=3)
        assert draws == []

    def test_rows_take_only_the_settings_they_read(self):
        with pytest.raises(TypeError):
            lemma_rows([64], [None], 2, p_user=1.0)
