"""End-to-end acceptance criteria.

Each test prints one ACCEPTANCE line (PASS/FAIL with the measured numbers)
and then asserts the stated tolerance.

The closed-form targets are N -> infinity limits that leave out the
residual inter-pair interference.  Relative to the forwarded relay noise
that interference falls like K/N but carries a factor (pi/4) E_u ~ 15.7 at
13 dB, so each large-array claim is checked at an array size where the
model actually reaches it:

* Criterion 3 (case-2 convergence, unit gains): the gap to `rate_case2`
  shrinks monotonically over 64..512 and on to N = 16384, where it must be
  within 5%.  The gap falls like 1/N (gap * N levels off near 400): it is
  ~40% at N = 512, ~4.9% at N = 8192 and ~2.6% at N = 16384, with a
  standard error of ~0.05% over 30 trials.
* Criterion 7 (hybrid/full-digital rate ratio in [0.80, 0.98], case-1
  powers): checked on the unit-gain placement at N = 4096, where the ratio
  is 0.832 (limit 0.848; 0.668 at N = 256, 0.789 at N = 1024).  Under a
  placement redrawn every trial (path-loss exponent 3.8, 8 dB shadowing)
  the ratio is 0.76 at N = 256 and its drop-averaged limit is only ~0.79,
  below the floor at every array size.

The benchmark placement for the fixed-drop criteria puts every pair on the
guard circle with no shadowing, so both hop gains are exactly 1 and the
closed-form targets are analytic.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import kernel_alpha
from hybridrelay import (
    AsymptoticInputs,
    QuantizationSpec,
    SystemConfig,
    monte_carlo_rate,
    monte_carlo_rates,
    rate_case2,
    rate_case3,
    sample_small_scale,
    sinc_penalty,
    sinrs,
)
from hybridrelay import metrics
from hybridrelay.channel import ChannelRealization
from hybridrelay.cli import main as cli_main

EU_DB = 13.0
EU = 10.0 ** (EU_DB / 10.0)
K = 10
TRIALS = 1000
UNIT_DROP = (np.ones(K), np.ones(K))
BASE = SystemConfig(n_antennas=64, seed=7)
SWEEP_N = (64, 128, 256, 512)
# Criterion 3's 5% clause is checked here.  The gap's standard error over
# 30 trials is ~0.05%, some 50x below its 2.4-point margin to 5%.
LIMIT_N = 16384
LIMIT_TRIALS = 30
# Criterion 7: the ratio's standard error at 100 trials per mode is ~0.0005,
# against a margin of 0.03 to the 0.80 floor.
RATIO_N = 4096
RATIO_TRIALS = 100


def case2_config(n):
    return replace(BASE, n_antennas=n, p_user=EU / n, p_relay=EU)


def unit_inputs(**kw):
    return AsymptoticInputs(eta1=np.ones(K), eta2=np.ones(K), r=K, **kw)


def report(capsys, num, passed, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def case2_sweep():
    t0 = time.monotonic()
    points = {
        n: monte_carlo_rate(case2_config(n), TRIALS, "hybrid", drop=UNIT_DROP)
        for n in SWEEP_N
    }
    return points, time.monotonic() - t0


def random_instance(rng, n_max=32, k_max=4):
    n = int(rng.integers(4, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    bits = [None, 1, 2, 3][int(rng.integers(0, 4))]
    cfg = SystemConfig(
        n_antennas=n, n_pairs=k, n_rx_chains=k, n_tx_chains=k,
        p_user=float(rng.uniform(0.1, 10.0)),
        p_relay=float(rng.uniform(0.1, 10.0)),
        var_relay_noise=float(rng.uniform(0.1, 10.0)),
        var_dest_noise=float(rng.uniform(0.1, 10.0)),
        quant_bits=bits,
    )
    h1 = sample_small_scale(n, k, rng)
    h2 = sample_small_scale(n, k, rng)
    eta1 = rng.uniform(0.1, 3.0, size=k)
    eta2 = rng.uniform(0.1, 3.0, size=k)
    real = ChannelRealization(
        eta1=eta1, eta2=eta2, g1=h1 * np.sqrt(eta1), g2=h2 * np.sqrt(eta2),
    )
    return cfg, real


def test_criterion_1_sinr_matches_termwise_oracle(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        cfg, real = random_instance(rng)
        relay = {
            "hybrid": oracles.relay_matrix(real, cfg),
            "full_digital": oracles.relay_matrix_full(real, cfg),
        }
        for mode, b in relay.items():
            got = sinrs(real, cfg, mode)
            for k in range(cfg.n_pairs):
                want = oracles.sinr_reference(
                    b, real.g1, real.g2, k,
                    cfg.p_user, cfg.var_relay_noise, cfg.var_dest_noise,
                )
                worst = max(worst, abs(got[k] - want) / want)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(capsys, 1, ok,
           f"max rel err {worst:.2e} over 100 instances, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_relay_power_identity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(1000):
        cfg, real = random_instance(rng, n_max=16)
        # alpha from the package's normalization, the map from the oracle.
        for b in (
            oracles.relay_matrix(real, cfg, kernel_alpha(real, cfg)),
            oracles.relay_matrix_full(real, cfg, kernel_alpha(real, cfg, "full_digital")),
        ):
            power = oracles.relay_output_power(
                b, real.g1, cfg.p_user, cfg.var_relay_noise
            )
            worst = max(worst, abs(power - cfg.p_relay) / cfg.p_relay)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    report(capsys, 2, ok,
           f"max rel dev {worst:.2e} over 1000 fuzzed instances, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_case2_convergence(capsys, case2_sweep):
    points, sweep_elapsed = case2_sweep
    t0 = time.monotonic()
    points = {
        **points,
        LIMIT_N: monte_carlo_rate(
            case2_config(LIMIT_N), LIMIT_TRIALS, "hybrid", drop=UNIT_DROP
        ),
    }
    elapsed = sweep_elapsed + time.monotonic() - t0
    sizes = SWEEP_N + (LIMIT_N,)
    limit = rate_case2(unit_inputs(e_user=EU))
    gaps = {n: abs(points[n].mean_rate - limit) / limit for n in sizes}
    slack = {n: 3.0 * points[n].std_error / limit for n in sizes}
    monotone = all(
        gaps[b] < gaps[a] + slack[a] + slack[b]
        for a, b in zip(sizes, sizes[1:])
    )
    final = gaps[LIMIT_N]
    ok = monotone and final <= 0.05 and elapsed < 600.0
    gap_text = " -> ".join(f"{gaps[n]:.3f}" for n in sizes)
    report(capsys, 3, ok,
           f"gaps to limit {limit:.4f} at N={sizes}: {gap_text}; "
           f"monotone={monotone}, final gap {final:.2%} "
           f"(SE {points[LIMIT_N].std_error / limit:.2%}, {LIMIT_TRIALS} "
           f"trials) vs 5%, {elapsed:.0f}s")
    assert elapsed < 600.0
    assert monotone, f"gap sequence not monotone: {gaps}"
    assert final <= 0.05, (
        f"gap at N={LIMIT_N} is {final:.1%}, expected ~2.6%: the "
        f"interference the limit leaves out falls like 1/N (~40% at N=512)"
    )


def test_criterion_4_case3_converges_faster(capsys, case2_sweep):
    t0 = time.monotonic()
    points, _ = case2_sweep
    n = 256
    cfg3 = replace(BASE, n_antennas=n, p_user=EU, p_relay=EU / n)
    point3 = monte_carlo_rate(cfg3, TRIALS, "hybrid", drop=UNIT_DROP)
    limit2 = rate_case2(unit_inputs(e_user=EU))
    limit3 = rate_case3(unit_inputs(e_relay=EU))
    gap2 = abs(points[n].mean_rate - limit2) / limit2
    gap3 = abs(point3.mean_rate - limit3) / limit3
    elapsed = time.monotonic() - t0
    ok = gap3 < gap2 and elapsed < 600.0
    report(capsys, 4, ok,
           f"N={n}: scaled-relay gap {gap3:.1%} < scaled-user gap {gap2:.1%}, "
           f"{elapsed:.0f}s")
    assert elapsed < 600.0
    assert gap3 < gap2


def test_criterion_5_one_bit_sinr_ratio(capsys):
    """1-bit/continuous SINR ratio near 4/pi^2 at N = 2048 (unit gains).

    The ratio sits ~10% above 4/pi^2 here (0.4465): that is the inter-pair
    interference the limit leaves out, not a fault in the quantized path.
    On unit gains with seed 7 the ratio is 0.4939, 0.4465, 0.4191 and
    0.4090 at N = 512, 2048, 8192 and 32768 (1000, 1000, 300 and 100
    trials), so N times the relative excess stays near 110, 210, 280 and
    300: the excess falls like 1/N.
    """
    t0 = time.monotonic()
    n = 2048
    cfg = replace(BASE, n_antennas=n, p_user=EU / n, p_relay=EU)
    cont, one_bit = monte_carlo_rates(
        cfg, TRIALS, [("hybrid", None), ("hybrid", 1)], drop=UNIT_DROP
    )
    ratio = one_bit.per_pair_mean_sinr.mean() / cont.per_pair_mean_sinr.mean()
    target = 4.0 / math.pi**2
    elapsed = time.monotonic() - t0
    ok = abs(ratio - target) <= 0.05 and elapsed < 300.0
    report(capsys, 5, ok,
           f"N={n}: SINR ratio {ratio:.5f} vs 4/pi^2 = {target:.5f} "
           f"(+-0.05), {elapsed:.0f}s")
    assert elapsed < 300.0
    assert abs(ratio - target) <= 0.05


def test_criterion_6_two_bit_rate_loss(capsys, case2_sweep):
    t0 = time.monotonic()
    points, _ = case2_sweep
    n = 512
    two_bit = monte_carlo_rate(
        replace(case2_config(n), quant_bits=2), TRIALS, "hybrid", drop=UNIT_DROP
    )
    loss = (points[n].mean_rate - two_bit.mean_rate) / points[n].mean_rate
    elapsed = time.monotonic() - t0
    ok = 0.04 <= loss <= 0.16 and elapsed < 600.0
    report(capsys, 6, ok,
           f"N={n}: 2-bit rate loss {loss:.1%} within [4%, 16%], {elapsed:.0f}s")
    assert elapsed < 600.0
    assert 0.04 <= loss <= 0.16


def test_criterion_7_hybrid_vs_full_digital(capsys):
    t0 = time.monotonic()
    n = RATIO_N
    cfg = replace(BASE, n_antennas=n, p_user=EU / n, p_relay=EU / n)
    hybrid, full = monte_carlo_rates(
        cfg, RATIO_TRIALS, [("hybrid", None), ("full_digital", None)],
        drop=UNIT_DROP,
    )
    ratio = hybrid.mean_rate / full.mean_rate
    elapsed = time.monotonic() - t0
    ok = 0.80 <= ratio <= 0.98 and elapsed < 600.0
    report(capsys, 7, ok,
           f"N={n}, unit gains, {RATIO_TRIALS} trials per mode: "
           f"hybrid/full-digital rate ratio {ratio:.3f} vs [0.80, 0.98], "
           f"{elapsed:.0f}s")
    assert elapsed < 600.0
    assert 0.80 <= ratio <= 0.98, (
        f"ratio {ratio:.3f} at N={n} on unit gains; the large-array analysis "
        f"puts it near 0.832 here (limit 0.848)"
    )


def test_criterion_8_large_array_identities(capsys, tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "lemmas.csv"
    code = cli_main([
        "verify-lemmas", "--n", "100,1000,10000", "--seeds", "50",
        "--beta", "cont,1,2,3", "--out", str(out),
    ])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))

    ortho = [r for r in rows if r["metric"] == "orthonormality"]
    max_diag = max(float(r["diag_deviation"]) for r in ortho)

    sizes = (100, 1000, 10000)
    meds = [
        np.median([
            float(r["offdiag_deviation"])
            for r in ortho
            if int(r["N"]) == n and r["beta"] == "cont"
        ])
        for n in sizes
    ]
    slope = np.polyfit(np.log10(sizes), np.log10(meds), 1)[0]

    fh_rows = [r for r in rows if r["metric"] == "fh_convergence"]
    worst_quant = 0.0
    for bits in (1, 2, 3):
        target = sinc_penalty(QuantizationSpec(bits))
        for n in sizes:
            got = np.mean([
                float(r["diag_mean"])
                for r in fh_rows
                if int(r["N"]) == n and r["beta"] == str(bits)
            ])
            worst_quant = max(worst_quant, abs(got - target) / target)

    elapsed = time.monotonic() - t0
    ok = (max_diag <= 1e-12 and -0.65 <= slope <= -0.35
          and worst_quant <= 0.02 and elapsed < 300.0)
    report(capsys, 8, ok,
           f"diag dev {max_diag:.1e} <= 1e-12; off-diag slope {slope:.3f} in "
           f"-0.5+-0.15; quantized diag off by {worst_quant:.2%} <= 2%; "
           f"{elapsed:.0f}s")
    assert max_diag <= 1e-12
    assert -0.65 <= slope <= -0.35
    assert worst_quant <= 0.02
    assert elapsed < 300.0


def test_criterion_9_worker_count_never_changes_output(capsys, tmp_path, monkeypatch):
    argv = [
        "simulate", "--case", "2", "--n", "16,32", "--beta", "cont,1",
        "--modes", "hybrid,full", "--trials", "50", "--eu-db", "13",
        "--pr-db", "13", "--n-pairs", "3", "--n-rx-chains", "3",
        "--n-tx-chains", "3", "--seed", "11",
    ]
    # Blocks of 2-5 trials, so every cell is split across the thread pool.
    monkeypatch.setattr(metrics, "_BLOCK_BYTES", 2 ** 13)
    files = {}
    for threads in ("1", "4"):
        out = tmp_path / f"threads_{threads}.csv"
        monkeypatch.setenv("SIM_THREADS", threads)
        assert cli_main(argv + ["--out", str(out)]) == 0
        files[threads] = out.read_bytes()
    ok = files["1"] == files["4"]
    report(capsys, 9, ok,
           f"CSV bytes identical across SIM_THREADS=1 and 4: {ok}")
    assert ok
