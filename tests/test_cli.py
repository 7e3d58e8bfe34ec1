"""Command-line front-end: parsing, sweep output, error mapping."""

import csv
import json
import logging

import pytest

from hybridrelay import channel, cli, metrics
from hybridrelay.cli import (
    CSV_COLUMNS,
    LEMMA_COLUMNS,
    SweepSpec,
    UsageError,
    _cell_powers,
    _parse_beta_list,
    _parse_case,
    _parse_modes,
    db_to_linear,
    main,
)

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
    orig = channel.sample_realization

    def counting(config, trial, drop=None):
        calls.append(trial)
        return orig(config, trial, drop=drop)

    monkeypatch.setattr(channel, "sample_realization", counting)
    return calls


def run_simulate(out, extra):
    argv = ["simulate", "--case", "2", "--n", "8,16", "--beta", "cont,1",
            "--eu-db", "13", "--pr-db", "13", "--out", str(out)]
    return main(argv + SMALL_ARGS + extra)


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

    def test_dat_companion(self, tmp_path):
        out, dat = tmp_path / "rates.csv", tmp_path / "rates.dat"
        run_simulate(out, ["--modes", "full", "--dat", str(dat)])
        lines = dat.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# " + " ".join(CSV_COLUMNS)
        assert len(lines) == 1 + 2
        # Blank cells (no closed form for a full-digital row) become nan.
        assert lines[1].split()[CSV_COLUMNS.index("asymptote_rate")] == "nan"

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


class TestSimulateErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"case": "case2", "n_values": [8],
                                   "antena_count": 4}))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "antena_count" in capsys.readouterr().err

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

    def test_unwritable_output_is_failure_not_usage(self, tmp_path, capsys):
        argv = ["simulate", "--case", "2", "--n", "8", "--eu-db", "13",
                "--pr-db", "13",
                "--out", str(tmp_path / "no" / "dir" / "x.csv")] + SMALL_ARGS
        assert main(argv) == 1
        assert "failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["abc", "0", "-1"])
    def test_invalid_sim_threads_fails_before_any_cell(
        self, tmp_path, capsys, monkeypatch, threads
    ):
        calls = count_draws(monkeypatch)
        monkeypatch.setenv("SIM_THREADS", threads)
        out = tmp_path / "x.csv"
        assert run_simulate(out, ["--modes", "hybrid,full"]) == 2
        assert "SIM_THREADS" in capsys.readouterr().err
        assert calls == []
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
    ], ids=["zero-chains", "negative-chains", "zero-pairs", "zero-bits",
            "negative-seed"])
    def test_bad_input_fails_before_any_draw(self, tmp_path, monkeypatch, flags):
        draws = []
        monkeypatch.setattr(cli, "sample_small_scale",
                            lambda *args: draws.append(args))
        out = tmp_path / "x.csv"
        assert main(["verify-lemmas", "--n", "100", "--seeds", "2",
                     "--out", str(out)] + flags) == 2
        assert draws == []
        assert not out.exists()

    def test_required_flags(self):
        with pytest.raises(SystemExit):
            main(["verify-lemmas", "--seeds", "1"])


class TestHelpers:
    def test_db_to_linear_frozen(self):
        assert db_to_linear(13.0) == pytest.approx(19.952623149688797, rel=1e-15)
        assert db_to_linear(0.0) == 1.0

    def test_case_aliases(self):
        assert _parse_case("1") == "case1"
        assert _parse_case("FIXED") == "fixed_power"
        with pytest.raises(UsageError):
            _parse_case("7")

    def test_mode_aliases_dedupe_in_order(self):
        assert _parse_modes("full,asym,full") == ("full_digital", "asymptote")
        with pytest.raises(UsageError):
            _parse_modes("hybrid,analog")

    def test_beta_list(self):
        assert _parse_beta_list("cont,2,1") == (None, 2, 1)
        assert _parse_beta_list("CONTINUOUS") == (None,)
        with pytest.raises(UsageError):
            _parse_beta_list("1.5")

    def test_cell_powers_follow_each_scaling_law(self):
        def spec(case, **kw):
            return SweepSpec(case=case, n_values=(10,), beta_values=(None,),
                             modes=("hybrid",), **kw)

        # 10 dB -> 10x, 20 dB -> 100x; N = 10 divides the scaled sides.
        assert _cell_powers(spec("case1", eu_db=10, er_db=20), 10) == (1.0, 10.0)
        assert _cell_powers(spec("case2", eu_db=10, pr_db=20), 10) == (1.0, 100.0)
        assert _cell_powers(spec("case3", pu_db=10, er_db=20), 10) == (10.0, 10.0)
        assert _cell_powers(spec("fixed_power", pu_db=10, pr_db=20), 10) == (10.0, 100.0)


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
    ])
    def test_rejections(self, kw, fragment):
        with pytest.raises(UsageError, match=fragment):
            self.good(**kw)
