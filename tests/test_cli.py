"""Command-line front-end: parsing, sweep output, error mapping."""

import argparse
import csv
import errno
import json
import logging
import os
import platform
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import fresh_serial_run
from hybridrelay import (
    AsymptoticInputs,
    QuantizationSpec,
    SweepSpec,
    SystemConfig,
    canonical_drop,
    channel,
    cli,
    diagnostics,
    metrics,
    rate_case1,
    rate_case2,
    rate_case3,
    run_sweep,
)
from hybridrelay.cli import _parse_beta_list, _parse_case, _parse_modes, main
from hybridrelay.diagnostics import LEMMA_COLUMNS
from hybridrelay.metrics import CSV_COLUMNS, db_to_linear, render_beta

SMALL_ARGS = [
    "--n-pairs", "3", "--n-rx-chains", "3", "--n-tx-chains", "3",
    "--trials", "6", "--seed", "5",
]


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


def count_draws(monkeypatch):
    """Record the trial index of every channel draw from here on."""
    calls = []
    orig = channel._fill_block

    def counting(config, lo, hi, *args):
        calls.extend(range(lo, hi))
        return orig(config, lo, hi, *args)

    monkeypatch.setattr(channel, "_fill_block", counting)
    return calls


def run_simulate(out, extra):
    argv = ["simulate", "--case", "2", "--n", "8,16", "--beta", "cont,1",
            "--eu-db", "13", "--pr-db", "13", "--out", str(out)]
    return main(argv + SMALL_ARGS + extra)


def bad_output_path(tmp_path, key, kind):
    """An output path for `key` that is a directory, or lies in a missing
    one, and the usage error it draws."""
    folder = tmp_path / "folder"
    if kind == "directory":
        folder.mkdir()
        return folder, f"error: {key} is a directory: {folder}\n"
    return folder / "x", f"error: {key} directory does not exist: {folder}\n"


class TestSimulate:
    def test_roundtrip_schema_and_order(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run_simulate(out, ["--modes", "hybrid,full,asym"]) == 0
        header, body = read_csv(out)
        assert header == list(CSV_COLUMNS)
        # Per N: full_digital once, then (asym, hybrid) per beta.
        assert len(body) == 2 * (1 + 2 * 2)
        key = [(r["case"], int(r["N"]),
                -1 if r["beta"] == "cont" else int(r["beta"]), r["mode"])
               for r in body]
        assert key == sorted(key)

    def test_mode_row_contents(self, tmp_path):
        out = tmp_path / "rates.csv"
        run_simulate(out, ["--modes", "hybrid,full,asym"])
        _, body = read_csv(out)
        for row in body:
            if row["mode"] == "asymptote":
                # Closed form: no sampling, the rate is its own benchmark.
                assert row["trials"] == "0"
                assert row["std_err"] == "0"
                assert row["mean_rate_bps_hz"] == row["asymptote_rate"]
            elif row["mode"] == "full_digital":
                assert row["beta"] == "cont"
                assert row["asymptote_rate"] == ""
                assert row["trials"] == "6"
            else:
                assert row["mode"] == "hybrid"
                assert row["trials"] == "6"
                assert float(row["asymptote_rate"]) > 0.0

    def test_hybrid_and_asym_rows_quote_same_benchmark(self, tmp_path):
        out = tmp_path / "rates.csv"
        run_simulate(out, ["--modes", "hybrid,asym"])
        _, body = read_csv(out)
        bench = {
            (r["N"], r["beta"]): r["asymptote_rate"]
            for r in body if r["mode"] == "asymptote"
        }
        for row in body:
            if row["mode"] == "hybrid":
                assert row["asymptote_rate"] == bench[(row["N"], row["beta"])]

    def test_asymptote_rows_ignore_seed(self, tmp_path):
        # The benchmark drop is deliberately pinned, so closed-form columns
        # must not move with the scenario seed.
        args = ["simulate", "--case", "2", "--n", "64,256", "--beta", "cont,2",
                "--modes", "asym", "--trials", "2", "--eu-db", "13",
                "--pr-db", "13"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--seed", "1", "--out", str(a)]) == 0
        assert main(args + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("case,flags,law,energies", [
        ("1", ["--eu-db", "13", "--er-db", "7"], rate_case1,
         dict(e_user=db_to_linear(13.0), e_relay=db_to_linear(7.0))),
        ("2", ["--eu-db", "13", "--pr-db", "7"], rate_case2,
         dict(e_user=db_to_linear(13.0))),
        ("3", ["--pu-db", "13", "--er-db", "7"], rate_case3,
         dict(e_relay=db_to_linear(7.0))),
    ], ids=["case1", "case2", "case3"])
    def test_asymptote_row_is_the_public_law(
        self, tmp_path, case, flags, law, energies
    ):
        # The limit of each regime, on the canonical drop of the largest
        # array, with r = min(K_r, K_t, K) = 2 active pairs and only the
        # regime's energies: a fixed-power side has none.
        out = tmp_path / "rates.csv"
        argv = ["simulate", "--case", case, "--n", "8,64", "--beta", "cont,2",
                "--modes", "asym", "--out", str(out)] + SMALL_ARGS + [
                "--n-tx-chains", "2", "--var-relay-noise", "0.8",
                "--var-dest-noise", "1.3"] + flags
        assert main(argv) == 0
        eta1, eta2 = canonical_drop(SystemConfig(
            n_antennas=64, n_pairs=3, n_rx_chains=3, n_tx_chains=2
        ))
        _, body = read_csv(out)
        assert len(body) == 4
        for row in body:
            beta = row["beta"]
            delta = 0.0 if beta == "cont" else QuantizationSpec(int(beta)).step
            expected = law(AsymptoticInputs(
                eta1=eta1, eta2=eta2, r=2, var_relay_noise=0.8,
                var_dest_noise=1.3, delta=delta, **energies,
            ))
            assert row["mean_rate_bps_hz"] == "%.10g" % expected

    @pytest.mark.parametrize("case,flags,unused", [
        ("2", ["--eu-db", "13", "--pr-db", "7"], ["--er-db", "5"]),
        ("3", ["--pu-db", "13", "--er-db", "7"], ["--eu-db", "5"]),
    ], ids=["case2", "case3"])
    def test_unused_energy_flag_changes_no_byte(self, tmp_path, case, flags, unused):
        # A valid unread setting; an invalid one is rejected like a read one
        # (test_sweep_spec_rejection_exits_2).
        argv = ["simulate", "--case", case, "--n", "8,16", "--beta", "cont,1",
                "--modes", "hybrid,full,asym"] + SMALL_ARGS + flags
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + unused + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        # Blocks of one or two trials, so every cell reaches the thread pool.
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 2 ** 11)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("SIM_THREADS", "1")
        run_simulate(a, ["--modes", "hybrid,full"])
        monkeypatch.setenv("SIM_THREADS", "4")
        run_simulate(b, ["--modes", "hybrid,full"])
        assert a.read_bytes() == b.read_bytes()

    def test_each_trial_drawn_once_per_array_size(self, tmp_path, monkeypatch):
        # Full digital and hybrid at two betas share each N's draws.
        calls = count_draws(monkeypatch)
        assert run_simulate(tmp_path / "rates.csv", ["--modes", "hybrid,full"]) == 0
        assert len(calls) == 2 * 6  # len(n_values) x trials

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("drop_policy,regime", [
        ("redraw_per_trial", ["--case", "2", "--eu-db", "13", "--pr-db", "13"]),
        ("fixed_drop", ["--case", "2", "--eu-db", "13", "--pr-db", "13"]),
        ("redraw_per_trial", ["--case", "fixed", "--pu-db", "0", "--pr-db", "5"]),
    ], ids=["redraw_per_trial", "fixed_drop", "fixed"])
    def test_one_pool_equals_separate_calls_per_array_size(
        self, tmp_path, monkeypatch, threads, drop_policy, regime
    ):
        # The written CSV, not only run_sweep's rows: blocks of one to three
        # trials, so the pool interleaves array sizes.
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 2 ** 12)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("SIM_THREADS", threads)
        out = tmp_path / "rates.csv"
        argv = ["simulate", "--n", "8,16,24", "--beta", "cont,1",
                "--modes", "hybrid,full", *regime,
                "--n-pairs", "3", "--n-rx-chains", "3", "--n-tx-chains", "3",
                "--trials", "7", "--seed", "5", "--out", str(out)]
        if drop_policy == "fixed_drop":
            argv.append("--fixed-drop")
        assert main(argv) == 0
        fixed = "fixed" in regime
        spec = SweepSpec(
            case="fixed_power" if fixed else "case2", n_values=(8, 16, 24),
            beta_values=(None, 1), modes=("hybrid", "full_digital"), trials=7,
            **(dict(pu_db=0.0, pr_db=5.0) if fixed else dict(eu_db=13.0, pr_db=13.0)),
        )
        config = SystemConfig(n_antennas=24, n_pairs=3, n_rx_chains=3,
                              n_tx_chains=3, seed=5)
        drop = canonical_drop(config) if drop_policy == "fixed_drop" else None
        variants = [("full_digital", None), ("hybrid", None), ("hybrid", 1)]
        expected = []
        for n in spec.n_values:
            p_user, p_relay = metrics._cell_powers(spec, n)
            base = replace(config, n_antennas=n, p_user=p_user, p_relay=p_relay)
            points = metrics.monte_carlo_rates(base, spec.trials, variants, drop=drop)
            expected += [
                (str(n), render_beta(beta), mode, "%.10g" % p.mean_rate,
                 "%.10g" % p.std_error, str(p.n_trials), str(p.n_degenerate))
                for (mode, beta), p in zip(variants, points)
            ]
        _, body = read_csv(out)
        got = [
            (r["N"], r["beta"], r["mode"], r["mean_rate_bps_hz"], r["std_err"],
             r["trials"], r["degenerate_trials"])
            for r in body
        ]
        assert sorted(got) == sorted(expected)
        if fixed:
            assert {r["asymptote_rate"] for r in body} == {""}

    @staticmethod
    def assert_first_failure(tmp_path, capsys, monkeypatch, threads, losses, lost):
        """Each N loses its first losses[N] trials in every variant; the run
        exits 1 naming `lost` of 6 only after drawing both sizes' trials once."""
        orig = metrics._gram_sinrs

        def lossy(hop1, hop2, config):
            alpha_sq, out = orig(hop1, hop2, config)
            out[:losses.get(config.n_antennas, 0)] = np.nan
            return alpha_sq, out

        monkeypatch.setattr(metrics, "_gram_sinrs", lossy)
        monkeypatch.setenv("SIM_THREADS", threads)
        calls = count_draws(monkeypatch)
        out = tmp_path / "rates.csv"
        assert run_simulate(out, ["--modes", "hybrid,full"]) == 1
        assert capsys.readouterr().err == (
            f"failure: {lost} of 6 trials degenerate (> 1%); configuration unusable\n"
        )
        assert sorted(calls) == sorted(list(range(6)) * 2)
        assert not out.exists()

    def test_first_failing_array_size_in_order_raises(
        self, tmp_path, capsys, monkeypatch
    ):
        # N = 8 loses one of its six trials and N = 16 two; the pool runs
        # N = 16 first, and N = 8 still names the failure.
        for threads in ("1", "2"):
            with monkeypatch.context() as patch:
                self.assert_first_failure(
                    tmp_path, capsys, patch, threads, {8: 1, 16: 2}, 1)

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("losses, lost", [({16: 2}, 2), ({8: 1}, 1)])
    def test_one_failing_array_size_raises_after_every_block(
        self, tmp_path, capsys, monkeypatch, threads, losses, lost
    ):
        self.assert_first_failure(tmp_path, capsys, monkeypatch, threads, losses, lost)

    def test_overflowing_power_fails_without_numpy_warnings(self, tmp_path, capsys):
        # A user power of 3080 dB overflows the forwarded power on some
        # draws.  They are counted as degenerate, and the run fails on its
        # own message alone; under the suite's filterwarnings = error a
        # numpy overflow warning would raise instead.
        out = tmp_path / "rates.csv"
        assert main(["simulate", "--case", "fixed", "--n", "16,64", "--beta", "cont",
                     "--modes", "hybrid,full", "--pu-db", "3080", "--pr-db", "0",
                     "--trials", "20", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "failure: 5 of 20 trials degenerate (> 1%); configuration unusable\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("settings, limit", [
        (["--case", "2", "--eu-db", "13", "--pr-db", "13", "--var-relay-noise", "1e-320"],
         "inf"),
        (["--case", "1", "--eu-db", "3080", "--er-db", "3080"], "5024.455824"),
        (["--case", "1", "--eu-db", "10", "--er-db", "10", "--pathloss-exp", "200"],
         "0"),
        (["--case", "3", "--pu-db", "10", "--er-db", "10", "--pathloss-exp", "200"],
         "0"),
    ], ids=["sinr-beyond-float-range", "overflowing-energy-term",
            "underflowing-gains-case1", "underflowing-gains-case3"])
    def test_overflowing_limit_writes_without_numpy_warnings(
        self, tmp_path, capsys, settings, limit
    ):
        # A SINR beyond the float range is inf, and an overflowing term of
        # 1/SINR is 0, its limit; under the suite's filterwarnings = error a
        # numpy overflow warning would fail the run with exit 1.  At path-loss
        # exponent 200 every canonical gain is below 1e-20, and the relayed
        # terms' 0 / 0 once wrote nan with an "invalid value" warning.
        out = tmp_path / "rates.csv"
        assert main(["simulate", "--n", "16", "--trials", "2", "--modes", "asym",
                     "--out", str(out)] + settings) == 0
        assert capsys.readouterr().err == ""
        _, body = read_csv(out)
        assert [(r["mean_rate_bps_hz"], r["asymptote_rate"]) for r in body] == [
            (limit, limit)]

    def test_csv_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # At this shape the raw SINRs under one OpenBLAS thread and under
        # its default differ in the last bits; the 10-digit CSV must not,
        # with two pool workers calling a threaded BLAS at once.
        argv = [sys.executable, "-m", "hybridrelay.cli", "simulate", "--case", "2",
                "--n", "8192", "--beta", "cont,2", "--modes", "hybrid,full,asym",
                "--eu-db", "13", "--pr-db", "13", "--n-pairs", "3",
                "--n-rx-chains", "2", "--n-tx-chains", "1", "--trials", "4"]
        env = {k: v for k, v in os.environ.items()
               if k not in ("SIM_THREADS", "OPENBLAS_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        serial = dict(env, SIM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        paths = tmp_path / "serial.csv", tmp_path / "default.csv"
        for path, run_env in zip(paths, (serial, env)):
            subprocess.run(argv + ["--out", str(path)], env=run_env, check=True,
                           timeout=300)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_small_n_sweep_matches_committed_reference(self, tmp_path):
        # The benchmark's sweep-small-n invocation at its default seed: a
        # change to the draw's bits fails here, not only in the benchmark.
        out = tmp_path / "rates.csv"
        assert main(["simulate", "--case", "2", "--n", "16,32,64,128",
                     "--beta", "cont,1,2", "--modes", "hybrid,full,asym",
                     "--eu-db", "13", "--pr-db", "13", "--trials", "50",
                     "--seed", "0", "--out", str(out)]) == 0
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
        assert out.read_bytes() == (reference / "sweep-small-n.csv").read_bytes()

    def test_large_n_sweep_matches_committed_reference(self, tmp_path):
        # The benchmark's sweep-large-n invocation at its default seed: every
        # trial is a block of its own, and a kernel change that moves a
        # printed digit at large N fails here, not only in the benchmark.
        out = tmp_path / "rates.csv"
        assert main(["simulate", "--case", "2", "--n", "2048,8192",
                     "--beta", "cont,2", "--modes", "hybrid,full,asym",
                     "--eu-db", "13", "--pr-db", "13", "--trials", "5",
                     "--seed", "0", "--out", str(out)]) == 0
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
        assert out.read_bytes() == (reference / "sweep-large-n.csv").read_bytes()

    def test_largest_beta_runs(self, tmp_path):
        # 1023 bits is the finest codebook whose step is a float; its rows
        # read as continuous phases do.
        out = tmp_path / "rates.csv"
        assert run_simulate(out, ["--beta", "cont,1023", "--modes", "hybrid,asym"]) == 0
        _, body = read_csv(out)
        rate = {(r["N"], r["beta"], r["mode"]): float(r["mean_rate_bps_hz"]) for r in body}
        assert len(rate) == 2 * 2 * 2
        for (n, beta, mode), value in rate.items():
            if beta == "1023":
                assert value == pytest.approx(rate[n, "cont", mode], rel=1e-9)

    def test_dat_companion(self, tmp_path):
        out, dat = tmp_path / "rates.csv", tmp_path / "rates.dat"
        run_simulate(out, ["--modes", "full", "--dat", str(dat)])
        lines = dat.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# " + " ".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2
        # Blank cells (no closed form for a full-digital row) become nan.
        assert lines[1].split()[CSV_COLUMNS.index("asymptote_rate")] == "nan"

    def test_verbose_prints_info_lines(self, tmp_path, capsys, monkeypatch):
        # One line per array size, in N order, then one per output file.
        # Blocks of two trials at N = 8 and of one at N = 16.
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 2 ** 11)
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        modes = ["--modes", "full,hybrid"]
        assert run_simulate(quiet, modes) == 0
        assert capsys.readouterr().err == ""
        assert run_simulate(loud, modes + ["-v"]) == 0
        degenerate = "full_digital=0 hybrid(cont)=0 hybrid(1)=0"
        assert capsys.readouterr().err == (
            f"INFO N=8: trials=6 blocks=3 degenerate: {degenerate}\n"
            f"INFO N=16: trials=6 blocks=6 degenerate: {degenerate}\n"
            f"INFO wrote 6 rows to {loud}\n"
        )
        assert quiet.read_bytes() == loud.read_bytes()

    def test_config_file_with_flag_override_warns(self, tmp_path, caplog):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "case": "case2", "n_values": [8], "beta_values": ["cont"],
            "modes": ["hybrid"], "trials": 4, "eu_db": 13.0, "pr_db": 13.0,
            "n_pairs": 3, "n_rx_chains": 3, "n_tx_chains": 3,
        }))
        out = tmp_path / "rates.csv"
        with caplog.at_level(logging.WARNING, logger="hybridrelay.cli"):
            code = main(["simulate", "--config", str(cfg), "--trials", "6",
                         "--out", str(out)])
        assert code == 0
        assert any("overrides" in rec.message for rec in caplog.records)
        _, body = read_csv(out)
        assert all(r["trials"] == "6" for r in body)

    def test_flag_spelling_the_file_value_does_not_warn(self, tmp_path, caplog):
        # "2" is case2, "8, 16" is [8, 16] and full_digital is full: the
        # flags repeat the file, so nothing is overridden.
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "case": "case2", "n_values": [8, 16], "modes": ["full"],
        }))
        argv = ["simulate", "--config", str(cfg), "--case", "2",
                "--modes", "full_digital", "--eu-db", "13", "--pr-db", "13",
                "--out", str(tmp_path / "rates.csv")] + SMALL_ARGS

        def overrides(n_flag):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="hybridrelay.cli"):
                assert main(argv + ["--n", n_flag]) == 0
            return [r.message for r in caplog.records if "overrides" in r.message]

        assert overrides("8, 16") == []
        changed = overrides("8,32")
        assert len(changed) == 1 and "n_values" in changed[0]

    def test_overridden_file_value_must_still_parse(self, tmp_path, capsys):
        # As for every other key, a file value is checked even where a
        # flag overrides it.
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"case": "case9", "n_values": [8]}))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--case", "2",
                     "--eu-db", "13", "--pr-db", "13", "--out", str(out)]
                    + SMALL_ARGS) == 2
        assert "unknown case 'case9'" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("settings,flags", [
        ({"n_pairs": "3"}, ["--n-pairs", "3"]),
        ({"n_pairs": 3, "pathloss_exp": "3"},
         ["--n-pairs", "3", "--pathloss-exp", "3"]),
        ({"trials": 6.0, "seed": 5.0}, []),
        ({"beta_values": [None, 2]}, ["--beta", "cont,2"]),
    ], ids=["int-as-text", "float-as-text", "int-as-whole-float", "beta-null"])
    def test_config_values_read_as_flag_text(self, tmp_path, settings, flags):
        # A file value goes through its flag's converter: "3" in the file
        # is the same setting as 3 on the command line.
        argv = ["simulate", "--case", "2", "--n", "8,16", "--eu-db", "13",
                "--pr-db", "13", "--n-rx-chains", "3", "--n-tx-chains", "3",
                "--out"]
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"trials": 6, "seed": 5, **settings}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + [str(a), "--config", str(cfg)]) == 0
        assert main(argv + [str(b), "--trials", "6", "--seed", "5"] + flags) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSimulateErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"case": "case2", "n_values": [8],
                                   "antena_count": 4}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "antena_count" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("seed", 2.5),
        ("trials", 2.5),
        ("eu_db", "abc"),
        ("pathloss_exp", "steep"),
        ("n_rx_chains", True),
        ("shadow_std_db", None),
        ("case", None),
        ("out", False),
        ("trials", [6]),
    ], ids=["seed-fraction", "trials-fraction", "float-key-text", "float-key-word", "bool", "null", "case-null",
            "out-bool", "scalar-key-list"])
    def test_bad_config_value_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        calls = count_draws(monkeypatch)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "case": "case2", "n_values": [8], "eu_db": 13, "pr_db": 13,
            "trials": 4, "n_pairs": 3, "n_rx_chains": 3, "n_tx_chains": 3,
            key: value,
        }))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config key {key}:" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_beta_beyond_float_range_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = count_draws(monkeypatch)
        out = tmp_path / "x.csv"
        assert run_simulate(out, ["--beta", "cont,1024"]) == 2
        assert "beta_values: quant_bits" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_missing_energy_is_named(self, tmp_path, capsys):
        argv = ["simulate", "--case", "2", "--n", "8", "--pr-db", "13",
                "--out", str(tmp_path / "x.csv")] + SMALL_ARGS
        assert main(argv) == 2
        assert "eu-db" in capsys.readouterr().err

    def test_fixed_power_has_no_asymptote(self, tmp_path, capsys):
        argv = ["simulate", "--case", "fixed", "--n", "8", "--modes", "asym",
                "--pu-db", "0", "--pr-db", "0",
                "--out", str(tmp_path / "x.csv")] + SMALL_ARGS
        assert main(argv) == 2
        assert "asymptote" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,text,key", [
        ("--n", "8,,16", "n_values"),
        ("--n", "8,16,", "n_values"),
        ("--beta", "cont,,1", "beta_values"),
        ("--modes", "hybrid,,full", "modes"),
    ])
    def test_empty_list_item_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch, flag, text, key
    ):
        calls = count_draws(monkeypatch)
        out = tmp_path / "x.csv"
        assert run_simulate(out, [flag, text]) == 2
        assert f"error: {key} must not have an empty item" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("text,flags,fragment", [
        (None, [], "cannot read config file"),
        ("{not json", [], "config file is not valid JSON"),
        ("[8, 16]", [], "config file must hold a flat JSON object"),
        ("{}", ["--n", "8"], "missing required setting: case"),
        ("{}", ["--case", "2"], "missing required setting: n"),
        ("{}", ["--case", "2", "--n", "8,x"],
         "n_values must be a comma-separated list of integers"),
    ], ids=["unreadable-file", "not-json", "not-object", "no-case", "no-n",
            "non-integer-n"])
    def test_bad_settings_fail_before_any_draw(
        self, tmp_path, capsys, monkeypatch, text, flags, fragment
    ):
        calls = count_draws(monkeypatch)
        cfg = tmp_path / "sweep.json"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "x.csv"
        argv = ["simulate", "--config", str(cfg), "--eu-db", "13", "--pr-db", "13",
                "--out", str(out)]
        assert main(argv + SMALL_ARGS + flags) == 2
        assert f"error: {fragment}" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_bad_beta_token(self, tmp_path):
        argv = ["simulate", "--case", "2", "--n", "8", "--beta", "fine",
                "--eu-db", "13", "--pr-db", "13",
                "--out", str(tmp_path / "x.csv")] + SMALL_ARGS
        assert main(argv) == 2

    def test_descending_n(self, tmp_path):
        argv = ["simulate", "--case", "2", "--n", "16,8", "--eu-db", "13",
                "--pr-db", "13", "--out", str(tmp_path / "x.csv")] + SMALL_ARGS
        assert main(argv) == 2

    def test_chain_count_vs_smallest_array(self, tmp_path):
        # Default ten chains cannot fit a 4-antenna cell even when the
        # largest cell is fine.
        argv = ["simulate", "--case", "2", "--n", "4,64", "--eu-db", "13",
                "--pr-db", "13", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2

    @pytest.mark.parametrize("chains", [
        ["--n-pairs", "3", "--n-rx-chains", "5"],
        ["--n-pairs", "4"],  # the default ten chains on each side
    ])
    def test_chains_must_fit_pairs(self, tmp_path, capsys, chains):
        # Each chain matches one pair's channel; extra chains used to fail
        # mid-sweep with exit 1 instead of at parse time.
        argv = ["simulate", "--case", "2", "--n", "64", "--eu-db", "13",
                "--pr-db", "13", "--trials", "4",
                "--out", str(tmp_path / "x.csv")] + chains
        assert main(argv) == 2
        assert "n_pairs" in capsys.readouterr().err

    def test_unwritable_output_is_failure_not_usage(self, tmp_path, capsys, monkeypatch):
        # A write error that no check before the draws can see, such as a
        # full disk, stays a failure.
        def full_disk(rows, path, *columns):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(cli, "emit_csv", full_disk)
        argv = ["simulate", "--case", "2", "--n", "8", "--eu-db", "13",
                "--pr-db", "13", "--out", str(tmp_path / "x.csv")] + SMALL_ARGS
        assert main(argv) == 1
        assert "failure: [Errno 28]" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["out", "dat"])
    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_bad_output_path_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch, key, kind
    ):
        # Either output used to fail only after every cell had been drawn,
        # a bad dat after the CSV had been written.
        monkeypatch.setattr(cli, "run_sweep", lambda *args: pytest.fail("drew"))
        bad, message = bad_output_path(tmp_path, key, kind)
        paths = {"out": tmp_path / "rates.csv", "dat": tmp_path / "rates.dat", key: bad}
        assert run_simulate(paths["out"], ["--dat", str(paths["dat"])]) == 2
        assert capsys.readouterr().err == message
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    @pytest.mark.parametrize("threads", ["abc", "0", "-1"])
    def test_invalid_sim_threads_fails_before_any_cell(
        self, tmp_path, capsys, monkeypatch, threads
    ):
        # An asymptote-only run starts no pool, and is checked all the same.
        calls = count_draws(monkeypatch)
        monkeypatch.setenv("SIM_THREADS", threads)
        out = tmp_path / "x.csv"
        for modes in ("hybrid,full", "asym"):
            assert run_simulate(out, ["--modes", modes]) == 2
            assert "SIM_THREADS" in capsys.readouterr().err
            assert calls == []
            assert not out.exists()

    @pytest.mark.parametrize("dat", ["rates.csv", "./rates.csv"])
    def test_dat_naming_out_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch, dat
    ):
        # The DAT table used to overwrite the CSV it was written after.
        calls = count_draws(monkeypatch)
        out = tmp_path / "rates.csv"
        monkeypatch.chdir(tmp_path)
        assert run_simulate(out, ["--dat", dat]) == 2
        assert "error: dat and out name the same file" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["out", "dat"])
    def test_output_naming_config_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch, flag
    ):
        # Either output used to replace the settings file it was read from.
        calls = count_draws(monkeypatch)
        settings = tmp_path / "s.json"
        settings.write_text(json.dumps({"seed": 5}), encoding="utf-8")
        out = tmp_path / "rates.csv"
        extra = ["--config", str(settings)]
        if flag == "out":
            out = settings
        else:
            extra += ["--dat", str(settings)]
        assert run_simulate(out, extra) == 2
        assert f"error: config and {flag} name the same file" in capsys.readouterr().err
        assert calls == []
        assert json.loads(settings.read_text(encoding="utf-8")) == {"seed": 5}
        assert not (tmp_path / "rates.csv").exists()

    @pytest.mark.parametrize("flags,settings,fragment", [
        ([], {"n_values": []}, "n_values"),
        (["--n", "16,16"], {}, "ascending"),
        (["--n", "0"], {}, "positive"),
        (["--beta", "0"], {}, "beta"),
        (["--modes", "hybrid,analog"], {}, "unknown mode"),
        (["--trials", "1"], {}, "trials"),
        ([], {"drop_policy": "sticky"}, "drop_policy"),
        (["--case", "9"], {}, "case"),
        (["--eu-db", "4000"], {}, "eu_db"),
        (["--pr-db", "3100"], {}, "pr_db"),
        (["--pr-db", "inf"], {}, "pr_db"),
        (["--pr-db", "nan"], {}, "pr_db"),
        (["--case", "3", "--pu-db", "inf", "--er-db", "13"], {}, "pu_db"),
        (["--case", "fixed", "--pu-db", "inf"], {}, "pu_db"),
        (["--er-db", "4000"], {}, "er_db"),
        (["--case", "3", "--pu-db", "13", "--er-db", "7", "--eu-db", "nan"], {}, "eu_db"),
        (["--n", "16", "--pu-db", "nan", "--trials", "4"], {}, "pu_db"),
    ], ids=["no-n", "repeated-n", "zero-n", "zero-bits", "unknown-mode",
            "one-trial", "drop-policy", "unknown-case", "energy-overflow",
            "power-overflow", "infinite-power", "nan-power", "case3-infinite-power",
            "fixed-infinite-power", "unread-energy-overflow", "unread-nan-energy",
            "unread-nan-power"])
    def test_sweep_spec_rejection_exits_2(
        self, tmp_path, capsys, monkeypatch, flags, settings, fragment
    ):
        # Each rule of TestSweepSpecValidation reached through simulate; a
        # missing energy is test_missing_energy_is_named.  A repeated beta
        # cannot be reached: the front end runs a repeated value once.
        calls = count_draws(monkeypatch)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "case": "case2", "n_values": [8, 16], "eu_db": 13, "pr_db": 13,
            **settings,
        }))
        out = tmp_path / "x.csv"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        assert main(argv + SMALL_ARGS + flags) == 2
        assert fragment in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_infinite_noise_fails_before_any_draw(self, tmp_path, capsys, monkeypatch):
        calls = count_draws(monkeypatch)
        out = tmp_path / "x.csv"
        assert run_simulate(out, ["--var-relay-noise", "inf"]) == 2
        assert capsys.readouterr().err == (
            "error: var_relay_noise must be a finite number above 0, got inf\n")
        assert calls == []
        assert not out.exists()

    def test_non_finite_geometry_fails_before_any_draw(self, tmp_path, capsys, monkeypatch):
        # A NaN path-loss exponent used to draw every trial and exit 1.
        calls = count_draws(monkeypatch)
        out = tmp_path / "x.csv"
        assert run_simulate(out, ["--pathloss-exp", "nan"]) == 2
        assert capsys.readouterr().err == (
            "error: pathloss_exp must be a finite number of at least 0, got nan\n")
        assert calls == []
        assert not out.exists()

    GEOMETRY = ("cell_radius_m, guard_radius_m, pathloss_exp and shadow_std_db give "
                "the canonical drop a zero or non-finite gain: ")

    @pytest.mark.parametrize("flags,message", [
        (["--cell-radius-m", "1e300"],
         "cell_radius_m must be a finite number whose square is finite, got 1e+300"),
        (["--shadow-std-db", "1e300"],
         GEOMETRY + "eta1[0] must be a finite number above 0, got inf"),
        (["--pathloss-exp", "1e6"],
         GEOMETRY + "eta1[0] must be a finite number above 0, got 0.0"),
        (["--case", "fixed", "--pu-db", "13", "--fixed-drop", "--shadow-std-db", "1e300"],
         GEOMETRY + "eta1[0] must be a finite number above 0, got inf"),
    ], ids=["cell-radius", "shadowing", "pathloss", "fixed-drop"])
    def test_overflowing_geometry_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        # These used to end in an OverflowError traceback (the cell radius's
        # square) or in numpy's overflow warning and a message on the gains.
        calls = count_draws(monkeypatch)
        out = tmp_path / "x.csv"
        assert run_simulate(out, flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not out.exists()

    def test_overflowing_geometry_fails_under_warnings_as_errors(self, tmp_path):
        out = tmp_path / "x.csv"
        argv = [sys.executable, "-W", "error", "-m", "hybridrelay.cli", "simulate",
                "--case", "2", "--n", "16", "--eu-db", "13", "--pr-db", "13",
                "--shadow-std-db", "1e300", "--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: " + self.GEOMETRY + "eta1[0] must be a finite number above 0, got 0.0\n")
        assert not out.exists()

    def test_overflowing_geometry_of_redrawn_fixed_powers_is_degenerate(
        self, tmp_path, capsys
    ):
        # No closed form and no fixed drop read the canonical drop: every
        # redrawn placement is degenerate, without a numpy warning.
        out = tmp_path / "x.csv"
        assert run_simulate(out, ["--case", "fixed", "--pu-db", "13",
                                  "--shadow-std-db", "1e300"]) == 1
        assert capsys.readouterr().err == (
            "failure: 6 of 6 trials degenerate (> 1%); configuration unusable\n")
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run_simulate(out, ["--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out(self, tmp_path):
        argv = ["simulate", "--case", "2", "--n", "8", "--eu-db", "13",
                "--pr-db", "13"] + SMALL_ARGS
        assert main(argv) == 2


class TestVerifyLemmas:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "lemmas.csv"
        assert main(["verify-lemmas", "--n", "100", "--seeds", "3",
                     "--beta", "cont,2", "--out", str(out)]) == 0
        header, body = read_csv(out)
        assert header == list(LEMMA_COLUMNS)
        # 1 size x 3 seeds x 2 betas x 2 metrics
        assert len(body) == 12
        assert {r["metric"] for r in body} == {"orthonormality", "fh_convergence"}
        assert all(r["passed"] == "true" for r in body)
        key = [(r["metric"], int(r["N"]),
                -1 if r["beta"] == "cont" else int(r["beta"]), int(r["seed"]))
               for r in body]
        assert key == sorted(key)
        # Row normalization is exact regardless of quantization.
        assert all(float(r["diag_deviation"]) < 1e-12
                   for r in body if r["metric"] == "orthonormality")

    def test_verbose_prints_info_lines(self, tmp_path, capsys):
        argv = ["verify-lemmas", "--n", "16", "--seeds", "2", "--n-pairs", "3",
                "--n-rx-chains", "3", "--out"]
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        assert main(argv + [str(quiet)]) == 0
        assert capsys.readouterr().err == ""
        assert main(argv + [str(loud), "--verbose"]) == 0
        assert capsys.readouterr().err == (
            "INFO N=16: seeds=2 failed: orthonormality=0 fh_convergence=0\n"
            f"INFO wrote 4 rows to {loud}\n"
        )
        assert quiet.read_bytes() == loud.read_bytes()

    def test_verbose_counts_failed_rows_per_n_in_n_order(self, tmp_path, capsys,
                                                          monkeypatch):
        # One line per N, in N order whatever the pool's order, counting
        # the rows of each metric that fail: every row of a NaN draw.
        draw = diagnostics.sample_small_scale
        monkeypatch.setattr(diagnostics, "sample_small_scale", lambda n, k, rng: (
            np.full((n, k), np.nan + 0j) if n == 32 else draw(n, k, rng)))
        monkeypatch.setenv("SIM_THREADS", "2")
        out = tmp_path / "lemmas.csv"
        assert main(["verify-lemmas", "--n", "16,32,64", "--seeds", "3",
                     "--n-pairs", "3", "--n-rx-chains", "3", "--out", str(out),
                     "-v"]) == 0
        assert capsys.readouterr().err == (
            "INFO N=16: seeds=3 failed: orthonormality=0 fh_convergence=0\n"
            "INFO N=32: seeds=3 failed: orthonormality=3 fh_convergence=3\n"
            "INFO N=64: seeds=3 failed: orthonormality=0 fh_convergence=0\n"
            f"INFO wrote 18 rows to {out}\n"
        )

    def test_csv_bytes_do_not_depend_on_threads(self, tmp_path):
        # Each (N, seed) draw is one pool job; the bytes must not move with
        # the pool size or with the OpenBLAS thread count.
        argv = [sys.executable, "-m", "hybridrelay.cli", "verify-lemmas",
                "--n", "64,1024,4096", "--beta", "cont,1,2,12", "--seeds", "3"]
        env = {k: v for k, v in os.environ.items()
               if k not in ("SIM_THREADS", "OPENBLAS_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        settings = [{}, {"SIM_THREADS": "1"}, {"SIM_THREADS": "2"},
                    {"SIM_THREADS": "4"}, {"OPENBLAS_NUM_THREADS": "1"}]
        outputs = []
        for i, extra in enumerate(settings):
            path = tmp_path / f"lemmas{i}.csv"
            subprocess.run(argv + ["--out", str(path)], env={**env, **extra},
                           check=True, timeout=300)
            outputs.append(path.read_bytes())
        assert outputs[1:] == outputs[:1] * 4

    @pytest.mark.parametrize("threads", ["abc", "0", "-1"])
    def test_invalid_sim_threads_fails_before_any_draw(
        self, tmp_path, capsys, monkeypatch, threads
    ):
        draws = []
        monkeypatch.setattr(diagnostics, "sample_small_scale",
                            lambda *args: draws.append(args))
        monkeypatch.setenv("SIM_THREADS", threads)
        out = tmp_path / "x.csv"
        assert main(["verify-lemmas", "--n", "16", "--seeds", "2", "--n-pairs", "3",
                     "--n-rx-chains", "3", "--out", str(out)]) == 2
        assert "SIM_THREADS" in capsys.readouterr().err
        assert draws == []
        assert not out.exists()

    def test_chains_must_fit(self, tmp_path):
        assert main(["verify-lemmas", "--n", "4", "--seeds", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert main(["verify-lemmas", "--n", "100", "--seeds", "1",
                     "--n-pairs", "2", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--n-rx-chains", "0"],
        ["--n-rx-chains", "-1"],
        ["--n-pairs", "0", "--n-rx-chains", "0"],
        ["--beta", "0"],
        ["--seed", "-1"],
        ["--beta", "cont,1024"],
        ["--seeds", "0"],
    ], ids=["zero-chains", "negative-chains", "zero-pairs", "zero-bits",
            "negative-seed", "bits-beyond-float-range", "zero-seeds"])
    def test_bad_input_fails_before_any_draw(self, tmp_path, monkeypatch, flags):
        draws = []
        monkeypatch.setattr(diagnostics, "sample_small_scale",
                            lambda *args: draws.append(args))
        out = tmp_path / "x.csv"
        assert main(["verify-lemmas", "--n", "100", "--seeds", "2",
                     "--out", str(out)] + flags) == 2
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["16,16", "100,16"], ids=["repeated", "descending"])
    def test_n_list_follows_simulate_rules(self, tmp_path, capsys, monkeypatch, sizes):
        draws = []
        monkeypatch.setattr(diagnostics, "sample_small_scale",
                            lambda *args: draws.append(args))
        out = tmp_path / "x.csv"
        assert main(["verify-lemmas", "--n", sizes, "--seeds", "1",
                     "--out", str(out)]) == 2
        assert "n_values must be strictly ascending" in capsys.readouterr().err
        assert draws == []
        assert not out.exists()

    def test_empty_n_item_fails_before_any_draw(self, tmp_path, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr(diagnostics, "sample_small_scale",
                            lambda *args: draws.append(args))
        out = tmp_path / "x.csv"
        assert main(["verify-lemmas", "--n", "16,,32", "--seeds", "1",
                     "--out", str(out)]) == 2
        assert "n_values must not have an empty item" in capsys.readouterr().err
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_bad_output_path_fails_before_any_draw(self, tmp_path, capsys, monkeypatch, kind):
        monkeypatch.setattr(cli, "lemma_rows", lambda *args, **kw: pytest.fail("drew"))
        bad, message = bad_output_path(tmp_path, "out", kind)
        assert main(["verify-lemmas", "--n", "16", "--seeds", "1", "--out", str(bad)]) == 2
        assert capsys.readouterr().err == message
        assert [path for path in tmp_path.rglob("*") if path.is_file()] == []

    def test_repeated_beta_written_once(self, tmp_path):
        out = tmp_path / "lemmas.csv"
        assert main(["verify-lemmas", "--n", "16", "--seeds", "1", "--n-pairs", "3",
                     "--n-rx-chains", "3", "--beta", "cont,cont,2",
                     "--out", str(out)]) == 0
        _, body = read_csv(out)
        keys = [(r["metric"], r["N"], r["beta"], r["seed"]) for r in body]
        assert len(keys) == len(set(keys)) == 4

    def test_largest_beta_runs(self, tmp_path):
        out = tmp_path / "lemmas.csv"
        assert main(["verify-lemmas", "--n", "16", "--seeds", "2", "--n-pairs", "3",
                     "--n-rx-chains", "3", "--beta", "cont,1023",
                     "--out", str(out)]) == 0
        _, body = read_csv(out)
        assert sum(r["beta"] == "1023" for r in body) == 4
        assert all(r["passed"] == "true" for r in body)

    def test_required_flags(self):
        with pytest.raises(SystemExit):
            main(["verify-lemmas", "--seeds", "1"])


class TestHeapSetting:
    ARGVS = {
        "simulate": ["simulate", "--case", "2", "--n", "8,16", "--beta", "cont,1",
                     "--eu-db", "13", "--pr-db", "13", *SMALL_ARGS],
        "lemmas": ["verify-lemmas", "--n", "16,64", "--beta", "cont,2", "--seeds", "2",
                   "--n-pairs", "3", "--n-rx-chains", "3"],
    }

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the pool changes glibc's allocator settings only")
    def test_repeat_call_keeps_its_draws_in_the_heap(self, tmp_path):
        # With glibc's default thresholds each N = 16384 draw faulted its
        # arrays in from the OS again: about 3 800 minor faults per call.
        faults = fresh_serial_run("""
            import resource, sys
            from hybridrelay.cli import main

            argv = ["verify-lemmas", "--n", "4096,16384", "--beta", "cont,1",
                    "--seeds", "2", "--out", sys.argv[1]]
            assert main(argv) == 0
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(argv) == 0
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """, str(tmp_path / "l.csv"))
        assert int(faults) <= 300

    @pytest.mark.parametrize("command", ARGVS)
    @pytest.mark.parametrize("lookup", ["not-glibc", "no-symbol", "no-library"])
    def test_missing_mallopt_changes_nothing(self, tmp_path, monkeypatch, command, lookup):
        # Each fallback exits 0 and writes the unpatched run's bytes, with
        # one library lookup for the command's one pool call.  The unpatched
        # run has already set this process's thresholds, so the comparison
        # shows that the fallback leaves the output path alone, not that
        # the allocator setting keeps the bits.
        argv = self.ARGVS[command]
        plain, patched = tmp_path / "plain.csv", tmp_path / "patched.csv"
        assert main(argv + ["--out", str(plain)]) == 0
        loads = []

        def load(name):
            loads.append(name)
            if lookup == "not-glibc":
                raise TypeError("CDLL(None) off glibc, as on Windows")
            if lookup == "no-library":
                raise OSError("cannot load the process's own symbols")
            return types.SimpleNamespace()

        libc = ("", "") if lookup == "not-glibc" else ("glibc", "2.36")
        monkeypatch.setattr(metrics.platform, "libc_ver", lambda: libc)
        monkeypatch.setattr(metrics.ctypes, "CDLL", load)
        assert main(argv + ["--out", str(patched)]) == 0
        assert loads == ([] if lookup == "not-glibc" else [None])
        assert patched.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("accepted, calls", [
        (1, [(-3, 32 << 20), (-1, 256 << 20)]),
        (0, [(-3, 32 << 20)]),
    ], ids=["accepted", "rejected"])
    def test_trim_threshold_set_only_with_mmap_threshold(self, monkeypatch, accepted, calls):
        # 32-bit glibc rejects a 32 MiB mmap threshold, and the trim
        # threshold alone makes glibc fault more than its defaults.
        made = []

        def mallopt(param, value):
            made.append((param, value))
            return accepted

        monkeypatch.setattr(metrics.platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(metrics.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        metrics._keep_freed_memory()
        assert made == calls


# Every action of both subcommands as (option strings, dest, metavar, type,
# default, help).  The flags and their types are derived from SweepSpec's and
# SystemConfig's fields, so moving or editing those must leave this as is.
FLAGS = {
    'simulate': [
        (('-h', '--help'), 'help', None, None,
         '==SUPPRESS==', 'show this help message and exit'),
        (('--config',), 'config', None, None,
         None, 'JSON settings file; explicit flags override it'),
        (('--case',), 'case', 'CASE', 'str',
         None, 'power regime: 1|2|3|fixed'),
        (('--n',), 'n_values', 'N', 'str',
         None, 'comma-separated antenna counts, ascending'),
        (('--beta',), 'beta_values', 'BETA', 'str',
         None, "comma-separated phase-shifter bits and/or 'cont'"),
        (('--modes',), 'modes', 'MODES', 'str',
         None, 'comma-separated subset of hybrid,full,asym'),
        (('--trials',), 'trials', 'TRIALS', 'int',
         None, None),
        (('--eu-db',), 'eu_db', 'EU_DB', 'float',
         None, 'user energy N*p_user in dB (scaled regimes)'),
        (('--er-db',), 'er_db', 'ER_DB', 'float',
         None, 'relay energy N*p_relay in dB (scaled regimes)'),
        (('--pu-db',), 'pu_db', 'PU_DB', 'float',
         None, 'fixed user power in dB'),
        (('--pr-db',), 'pr_db', 'PR_DB', 'float',
         None, 'fixed relay power in dB'),
        (('--out',), 'out', 'OUT', 'str',
         None, 'output CSV path'),
        (('--dat',), 'dat', 'DAT', 'str',
         None, 'optional whitespace-separated companion table'),
        (('--fixed-drop',), 'drop_policy', None, None,
         None, 'pin the benchmark user placement for all trials (default: redraw the placement every trial)'),
        (('--n-pairs',), 'n_pairs', 'N_PAIRS', 'int',
         None, None),
        (('--n-rx-chains',), 'n_rx_chains', 'N_RX_CHAINS', 'int',
         None, None),
        (('--n-tx-chains',), 'n_tx_chains', 'N_TX_CHAINS', 'int',
         None, None),
        (('--var-relay-noise',), 'var_relay_noise', 'VAR_RELAY_NOISE', 'float',
         None, None),
        (('--var-dest-noise',), 'var_dest_noise', 'VAR_DEST_NOISE', 'float',
         None, None),
        (('--cell-radius-m',), 'cell_radius_m', 'CELL_RADIUS_M', 'float',
         None, None),
        (('--guard-radius-m',), 'guard_radius_m', 'GUARD_RADIUS_M', 'float',
         None, None),
        (('--pathloss-exp',), 'pathloss_exp', 'PATHLOSS_EXP', 'float',
         None, None),
        (('--shadow-std-db',), 'shadow_std_db', 'SHADOW_STD_DB', 'float',
         None, None),
        (('--seed',), 'seed', 'SEED', 'int',
         None, None),
        (('-v', '--verbose'), 'verbose', None, None,
         False, 'also print INFO lines on stderr'),
    ],
    'verify-lemmas': [
        (('-h', '--help'), 'help', None, None,
         '==SUPPRESS==', 'show this help message and exit'),
        (('--n',), 'n_values', 'N', 'str',
         None, 'comma-separated antenna counts, ascending'),
        (('--seeds',), 'seeds', None, 'int',
         50, 'number of seeds per size (default 50)'),
        (('--beta',), 'beta_values', 'BETA', 'str',
         'cont', "comma-separated bits and/or 'cont' (default cont)"),
        (('--out',), 'out', 'OUT', 'str',
         None, 'output CSV path'),
        (('--n-pairs',), 'n_pairs', 'N_PAIRS', 'int',
         None, None),
        (('--n-rx-chains',), 'n_rx_chains', 'N_RX_CHAINS', 'int',
         None, None),
        (('--seed',), 'seed', 'SEED', 'int',
         None, 'first seed of the family (default 0)'),
        (('-v', '--verbose'), 'verbose', None, None,
         False, 'also print INFO lines on stderr'),
    ],
}


def test_flag_surface_is_pinned():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, expected in FLAGS.items():
        got = [
            (tuple(a.option_strings), a.dest, a.metavar,
             None if a.type is None else a.type.__name__, a.default, a.help)
            for a in sub.choices[command]._actions
        ]
        assert got == expected, command


class TestHelpers:
    def test_db_to_linear_frozen(self):
        assert db_to_linear(13.0) == pytest.approx(19.952623149688797, rel=1e-15)
        assert db_to_linear(0.0) == 1.0

    def test_case_aliases(self):
        assert _parse_case("1") == "case1"
        assert _parse_case("FIXED") == "fixed_power"
        with pytest.raises(ValueError):
            _parse_case("7")

    def test_mode_aliases_dedupe_in_order(self):
        assert _parse_modes("full,asym,full") == ("full_digital", "asymptote")
        with pytest.raises(ValueError):
            _parse_modes("hybrid,analog")

    def test_beta_list(self):
        assert _parse_beta_list("cont,2,1") == (None, 2, 1)
        assert _parse_beta_list("CONTINUOUS") == (None,)
        with pytest.raises(ValueError):
            _parse_beta_list("1.5")


class TestSweepSpecValidation:
    def good(self, **kw):
        base = dict(case="case2", n_values=(8, 16), beta_values=(None, 1),
                    modes=("hybrid",), eu_db=13.0, pr_db=13.0)
        base.update(kw)
        return SweepSpec(**base)

    def test_valid_baseline(self):
        assert self.good().trials == 1000

    @pytest.mark.parametrize("kw,fragment", [
        (dict(n_values=()), "n_values"),
        (dict(n_values=(16, 16)), "ascending"),
        (dict(n_values=(0,)), "positive"),
        (dict(beta_values=(0,)), "beta"),
        (dict(modes=("hybrid", "analog")), "unknown modes"),
        (dict(trials=1), "trials"),
        (dict(drop_policy="sticky"), "drop_policy"),
        (dict(eu_db=None), "eu-db"),
        (dict(case="case9"), "case"),
        (dict(beta_values=(2, None, 2)), "repeat"),
        (dict(eu_db=4000.0), "eu_db"),
        (dict(pr_db=3100.0), "pr_db"),
        (dict(pr_db=float("inf")), "pr_db"),
        (dict(eu_db=float("nan")), "eu_db"),
        (dict(case="case3", pu_db=float("inf"), er_db=13.0), "pu_db"),
        (dict(case="fixed_power", pu_db=13.0, pr_db=float("nan")), "pr_db"),
        (dict(beta_values=()), "beta_values must not be empty"),
        (dict(modes=()), "modes must not be empty"),
        # These four keep the ids their earlier wording gave them.
        pytest.param(dict(trials=1e3), "trials must be an integer of at least 2, got 1000.0",
                     id="kw18-trials must be an integer, got 1000.0"),
        pytest.param(dict(n_values=(8, 16.0)),
                     r"n_values\[1\] must be a positive integer, got 16.0",
                     id="kw19-n_values must be integers, got 16.0"),
        pytest.param(dict(n_values=(True, 8)),
                     r"n_values\[0\] must be a positive integer, got True",
                     id="kw20-n_values must be integers, got True"),
        pytest.param(dict(trials=True), "trials must be an integer of at least 2, got True",
                     id="kw21-trials must be an integer, got True"),
        (dict(beta_values=(True,)), "beta_values: quant_bits"),
        # A setting the regime does not read follows the same rules.
        (dict(pu_db="abc"), "pu_db must be a finite number, got 'abc'"),
        (dict(er_db=4000.0), "er_db"),
    ])
    def test_rejections(self, kw, fragment):
        with pytest.raises(ValueError, match=fragment):
            self.good(**kw)

    def test_lists_are_stored_as_tuples(self):
        lists = SweepSpec("case2", [16], beta_values=[None, 1], modes=["hybrid"],
                          eu_db=13.0, pr_db=13.0, trials=4)
        tuples = SweepSpec("case2", (16,), beta_values=(None, 1), modes=("hybrid",),
                           eu_db=13.0, pr_db=13.0, trials=4)
        assert (lists.n_values, lists.beta_values, lists.modes) == (
            (16,), (None, 1), ("hybrid",))
        assert lists == tuples
        assert hash(lists) == hash(tuples)
        config = SystemConfig(n_antennas=16)
        assert run_sweep(lists, config) == run_sweep(tuples, config)

    def test_defaults_are_continuous_hybrid(self):
        spec = SweepSpec("case2", (64,), eu_db=13.0, pr_db=13.0)
        assert spec.beta_values == (None,)
        assert spec.modes == ("hybrid",)

    def test_underflow_to_zero_power_accepted(self):
        assert self.good(eu_db=-4000.0).eu_db == -4000.0
