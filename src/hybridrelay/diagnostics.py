"""Numerical checks that the analog stage approaches its large-array limits.

Two instruments:
  * orthonormality of the analog combiner rows (F F^H against the identity),
  * alignment of F with the raw fading (F H against a scaled identity).
Both shrink like 1/sqrt(N) and are reported against a 5/sqrt(N) envelope.
lemma_rows measures both over a family of draws: the verify-lemmas table.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import lemma_rng, sample_small_scale
from .config import SystemConfig
from .hybrid import (
    QuantizationSpec, _check_int, _dot, _gram, build_analog, sinc_penalty,
)
from .metrics import _beta_key, _check_lists, _pool_map

# Row norms of the analog stage are exact by construction; only float
# accumulation separates them from 1.
DIAG_TOL = 1e-12

LEMMA_COLUMNS = (
    "metric", "N", "beta", "seed", "diag_deviation", "offdiag_deviation",
    "diag_mean", "bound", "passed",
)


def orthonormality_parts(f: np.ndarray) -> Tuple[float, float, float]:
    """(max |diag(F F^H) - 1|, max off-diagonal |F F^H|, mean Re diag(F F^H)).

    F F^H is the engine's (hybrid._gram of F^T, conjugated): on a stage of
    more than hybrid._LARGE_SLICE entries its diagonal is exactly real.
    """
    p = _gram(f.T, conj=True)
    d = np.diagonal(p)
    off = np.abs(p - np.diag(d))
    return float(np.abs(d - 1.0).max()), float(off.max()), float(d.real.mean())


def fh_parts(
    f: np.ndarray, h: np.ndarray, quant: Optional[QuantizationSpec] = None
) -> Tuple[float, float, float]:
    """Deviation of F H / sqrt(N pi/4) from c * I, c = sinc(step) (1 unquantized).

    h is N x K.  The target covers the first r = min(chains, K) diagonal
    entries; all else converges to zero.  Returns (max diagonal deviation,
    max other-entry magnitude, mean real part of the diagonal).
    """
    target = sinc_penalty(quant)
    m = _dot(f, h) / math.sqrt(h.shape[0] * math.pi / 4.0)
    r = min(m.shape)
    idx = np.arange(r)
    diag = m[idx, idx]
    diag_dev = float(np.abs(diag - target).max())
    rest = m.copy()
    rest[idx, idx] = 0.0
    off_dev = float(np.abs(rest).max()) if rest.size > r else 0.0
    return diag_dev, off_dev, float(diag.real.mean())


def lemma_checks(
    h: np.ndarray, n_chains: int, bits: Optional[int]
) -> Tuple[dict, dict]:
    """Both identity checks of one N x K draw at one phase resolution.

    Builds the analog stage F from the first n_chains columns of h
    (continuous phases when bits is None) and returns the orthonormality
    and the F H row, each keyed by metric, the three parts of
    orthonormality_parts or fh_parts (diag_deviation, offdiag_deviation,
    diag_mean), bound and passed.  Both rows carry the 5/sqrt(N) bound and
    pass when the off-diagonal stays within it and the diagonal within
    DIAG_TOL for F F^H (each row is an exact average of N unit-magnitude
    entries) or within the bound for F H.
    """
    quant = QuantizationSpec(bits) if bits is not None else None
    f = build_analog(h, n_chains, quant)
    bound = 5.0 / math.sqrt(h.shape[0])
    return tuple(
        {"metric": metric, "diag_deviation": diag_dev, "offdiag_deviation": off_dev,
         "diag_mean": diag_mean, "bound": bound,
         "passed": diag_dev <= diag_tol and off_dev <= bound}
        for metric, (diag_dev, off_dev, diag_mean), diag_tol in (
            ("orthonormality", orthonormality_parts(f), DIAG_TOL),
            ("fh_convergence", fh_parts(f, h, quant), bound),
        )
    )


def lemma_rows(
    n_values: Sequence[int],
    beta_values: Sequence[Optional[int]],
    n_seeds: int,
    n_pairs: int = SystemConfig.n_pairs,
    n_rx_chains: int = SystemConfig.n_rx_chains,
    seed: int = SystemConfig.seed,
) -> List[dict]:
    """Both checks of every (N, seed, beta), keyed by LEMMA_COLUMNS.

    Seeds seed .. seed + n_seeds - 1 each draw an N x n_pairs fading matrix
    for an analog stage of n_rx_chains chains.  The lists follow a sweep's
    rules; the settings take SystemConfig's defaults and rules, and as the
    lemmas measure one side, n_rx_chains stands for both.  Every check raises
    ValueError before the first draw: the engine's pool (metrics._pool_map)
    checks SIM_THREADS before its first job.  Each (N, seed) draw is one job of
    that pool, measured at every beta: its rows depend on that pair only
    (lemma_rng).  The jobs run in the table's own order, N ascending, then
    seed, so one draw per worker is live and the largest draws overlap only at
    the end: largest first would hold them together for longer.  Rows are
    sorted by (metric, N, beta, seed), the same for any worker count.
    """
    _check_lists(n_values, beta_values)
    _check_int("n_seeds", n_seeds, 1)
    SystemConfig(n_antennas=min(n_values), n_pairs=n_pairs, n_rx_chains=n_rx_chains,
                 n_tx_chains=n_rx_chains, seed=seed)

    def draw_rows(job: Tuple[int, int]) -> List[dict]:
        n, draw_seed = job
        h = sample_small_scale(n, n_pairs, lemma_rng(draw_seed, n))
        return [{**row, "N": n, "beta": beta, "seed": draw_seed}
                for beta in beta_values for row in lemma_checks(h, n_rx_chains, beta)]

    jobs = [(n, s) for n in n_values for s in range(seed, seed + n_seeds)]
    rows = [row for done in _pool_map(draw_rows, jobs) for row in done]
    rows.sort(key=lambda r: (r["metric"], r["N"], _beta_key(r["beta"]), r["seed"]))
    return rows
