"""Correctness checks of one workload's CSV, valid at any seed.

Sweeps: every Monte-Carlo cell must hold all its trials, and the engine's
mean over a short prefix of the cell's trials must match the oracle's mean
over the same trials.  That is a fair check of the cell because each trial
is a pure function of (seed, trial index).  Asymptote rows are recomputed
through the package's closed forms.  Lemmas: every row's bound and pass flag
follow from its own numbers, and the rows of the first seeds of each size
are recomputed from their (seed, N) draw.  At the default seed the whole
table must also match the committed reference.

Each function returns the number of failed operations (trials, or lemma
rows) and a list of messages naming them.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import List, Tuple

import oracle
from workloads import EU_DB, PR_DB, Workload

PREFIX_TRIALS = 2     # engine-vs-oracle trials per Monte-Carlo cell
ORACLE_SEEDS = 2      # lemma seeds per size recomputed from their draw
RTOL = 1e-9           # oracle against engine, both in double precision
CSV_RTOL = 1e-8       # against values printed with 10 significant digits
CSV_ATOL = 1e-12      # deviations that are rounding noise, e.g. |diag - 1|
DIAG_TOL = 1e-12      # verify-lemmas pass rule for the orthonormality diagonal
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _beta(text: str):
    return None if text == "cont" else int(text)


def _rows(text: str) -> List[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check(workload: Workload, seed: int, text: str, program, default_seed: int) -> Tuple[int, List[str]]:
    if workload.is_sweep:
        failed, notes = _check_sweep(workload, seed, text, program)
    else:
        failed, notes = _check_lemmas(workload, seed, text)
    if seed == default_seed:
        ref_failed, ref_notes = _check_reference(workload, text)
        failed, notes = failed + ref_failed, notes + ref_notes
    return min(failed, workload.ops()), notes


def _check_sweep(w: Workload, seed: int, text: str, program) -> Tuple[int, List[str]]:
    rows = {(int(r["N"]), _beta(r["beta"]), r["mode"]): r for r in _rows(text)}
    failed, notes = 0, []
    e_user = 10.0 ** (EU_DB / 10.0)
    eta1, eta2 = program.canonical_drop(program.SystemConfig(n_antennas=max(w.n_values)))
    for n, beta, mode in w.mc_cells():
        row = rows.get((n, beta, mode))
        cell = f"N={n} beta={beta} {mode}"
        if row is None:
            failed += w.size
            notes.append(f"{cell}: row missing")
            continue
        cfg = program.SystemConfig(
            n_antennas=n, p_user=e_user / n, p_relay=10.0 ** (PR_DB / 10.0),
            seed=seed, quant_bits=beta,
        )
        engine = program.monte_carlo_rate(cfg, PREFIX_TRIALS, mode).mean_rate
        reference = oracle.mean_rate(cfg, PREFIX_TRIALS, mode)
        degenerate = int(row["degenerate_trials"])
        problems = []
        if int(row["trials"]) + degenerate != w.size:
            problems.append("trial count")
        if not (math.isfinite(float(row["mean_rate_bps_hz"])) and float(row["std_err"]) > 0):
            problems.append("mean or std_err")
        if not _close(engine, reference, RTOL):
            problems.append(f"prefix mean {engine!r} != oracle {reference!r}")
        if mode == "hybrid":
            asym = rows.get((n, beta, "asymptote"))
            delta = 0.0 if beta is None else math.pi / 2 ** beta
            expected = program.rate_case2(program.AsymptoticInputs(
                eta1=eta1, eta2=eta2, r=min(cfg.n_rx_chains, cfg.n_tx_chains, cfg.n_pairs),
                e_user=e_user, delta=delta,
            ))
            if asym is None or not _close(float(asym["mean_rate_bps_hz"]), expected, CSV_RTOL):
                problems.append("asymptote row")
            elif row["asymptote_rate"] != asym["mean_rate_bps_hz"]:
                problems.append("asymptote column")
        if problems:
            failed += w.size
            notes.append(f"{cell}: " + "; ".join(problems))
        else:
            failed += degenerate
    return failed, notes


def _check_lemmas(w: Workload, seed: int, text: str) -> Tuple[int, List[str]]:
    first = seed * w.size
    rows = _rows(text)
    failed = max(0, w.ops() - len(rows))
    notes = [f"{failed} rows missing"] if failed else []
    recomputed = {}
    for row in rows:
        n, beta, row_seed = int(row["N"]), _beta(row["beta"]), int(row["seed"])
        diag, off, mean = (float(row[c]) for c in ("diag_deviation", "offdiag_deviation", "diag_mean"))
        bound = float(row["bound"])
        problems = []
        if not _close(bound, 5.0 / math.sqrt(n), CSV_RTOL):
            problems.append("bound")
        if row["metric"] == "orthonormality":
            rule, margin = diag <= DIAG_TOL and off <= bound, abs(off - bound)
        else:
            rule, margin = max(diag, off) <= bound, abs(max(diag, off) - bound)
        if (row["passed"] == "true") != rule and margin > CSV_RTOL * bound:
            problems.append("pass flag")
        if row_seed < first + ORACLE_SEEDS:
            key = (row_seed, n, beta)
            if key not in recomputed:
                recomputed[key] = oracle.lemma_rows(row_seed, n, 10, 10, beta)
            ref = recomputed[key][row["metric"]]
            if not all(_close(got, want, CSV_RTOL, CSV_ATOL)
                       for got, want in zip((diag, off, mean), ref)):
                problems.append(f"values {(diag, off, mean)} != oracle {ref}")
        if problems:
            failed += 1
            notes.append(f"{row['metric']} N={n} beta={beta} seed={row_seed}: " + "; ".join(problems))
    if len(recomputed) != len(w.n_values) * len(w.betas) * ORACLE_SEEDS:
        failed += 1
        notes.append("oracle rows missing from the table")
    return failed, notes


def _check_reference(w: Workload, text: str) -> Tuple[int, List[str]]:
    """Whole-table comparison with the committed default-seed output."""
    reference = _rows((REFERENCE_DIR / f"{w.name}.csv").read_text(encoding="utf-8"))
    got = _rows(text)
    if len(got) != len(reference) or any(g.keys() != r.keys() for g, r in zip(got, reference)):
        return w.ops(), ["table shape differs from the reference"]
    failed, notes = 0, []
    for g, r in zip(got, reference):
        for column, want in r.items():
            have = g[column]
            try:
                same = _close(float(have), float(want), CSV_RTOL, CSV_ATOL)
            except ValueError:
                same = have == want
            if not same:
                failed += w.size if w.is_sweep and r.get("mode") != "asymptote" else 1
                notes.append(f"reference mismatch in {column}: {have} != {want} ({dict(r)})")
                break
    return failed, notes
