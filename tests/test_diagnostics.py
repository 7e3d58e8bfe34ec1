"""Large-array convergence diagnostics for the analog stage."""

import numpy as np
import pytest

from hybridrelay import (
    QuantizationSpec,
    lemma_rng,
    sample_small_scale,
    sinc_penalty,
)
from hybridrelay.diagnostics import (
    DIAG_TOL,
    fh_parts,
    lemma_checks,
    orthonormality_parts,
)
from hybridrelay.hybrid import build_analog


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
            diag_dev, _ = orthonormality_parts(f)
            assert diag_dev < 1e-12

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

    def test_report_passes_at_moderate_size(self):
        row, _ = lemma_checks(lemma_draw(256), 10, None)
        assert row["passed"] is True
        assert row["metric"] == "orthonormality"
        assert row["bound"] == pytest.approx(5.0 / 16.0)


class TestFhConvergence:
    def test_continuous_diagonal_approaches_unity(self):
        f, h, _ = analog_pair(20000)
        _, _, diag_mean = fh_parts(f, h, 20000)
        assert diag_mean == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("bits", [1, 2, 3])
    def test_quantized_diagonal_approaches_sinc_penalty(self, bits):
        # Phase errors uniform on [-step, step) thin the coherent average
        # by exactly E[cos(err)] = sinc(step).
        f, h, quant = analog_pair(20000, bits=bits)
        _, _, diag_mean = fh_parts(f, h, 20000, quant)
        assert diag_mean == pytest.approx(sinc_penalty(quant), rel=0.02)

    def test_deviation_decreases_with_n(self):
        devs = []
        for n in (100, 1000, 10000):
            per_seed = []
            for seed in range(20):
                f, h, _ = analog_pair(n, seed=seed)
                diag_dev, off_dev, _ = fh_parts(f, h, n)
                per_seed.append(max(diag_dev, off_dev))
            devs.append(np.median(per_seed))
        assert devs[0] > devs[1] > devs[2]

    def test_report_fields(self):
        f, h, _ = analog_pair(400)
        _, row = lemma_checks(h, 10, None)
        assert row["metric"] == "fh_convergence"
        assert row["bound"] == pytest.approx(0.25)
        assert (row["diag_deviation"], row["offdiag_deviation"],
                row["diag_mean"]) == fh_parts(f, h, 400)
        deviation = max(row["diag_deviation"], row["offdiag_deviation"])
        assert row["passed"] == (deviation <= row["bound"])


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
