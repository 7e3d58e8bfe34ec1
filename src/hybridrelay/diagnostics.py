"""Numerical checks that the analog stage approaches its large-array limits.

Two instruments:
  * orthonormality of the analog combiner rows (F F^H against the identity),
  * alignment of F with the raw fading (F H against a scaled identity).
Both shrink like 1/sqrt(N) and are reported against a 5/sqrt(N) envelope.
lemma_rows measures both over a family of draws: the verify-lemmas table.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .asymptotics import QUARTER_PI
from .channel import lemma_rng, sample_small_scale
from .config import SystemConfig
from .hybrid import QuantizationSpec, _analog_stages, _check_int, _dot, _gram, sinc_penalty
from .metrics import _beta_key, _check_lists, _pool_map

log = logging.getLogger(__name__)

# Row norms of the analog stage are exact by construction; only float
# accumulation separates them from 1.
DIAG_TOL = 1e-12

LEMMA_COLUMNS = (
    "metric", "N", "beta", "seed", "diag_deviation", "offdiag_deviation",
    "diag_mean", "bound", "passed",
)


def _identity_parts(m: np.ndarray, target: float) -> Tuple[float, float, float]:
    """(max |diag - target|, max other |entry|, mean Re diag) of m against target I.

    m's diagonal is its first min(m.shape) entries; with no other entry
    (m 1 x 1), their maximum is 0.0.
    """
    diag = np.diagonal(m)
    rest = np.abs(m)
    np.fill_diagonal(rest, 0.0)
    return float(np.abs(diag - target).max()), float(rest.max()), float(diag.real.mean())


def orthonormality_parts(f: np.ndarray) -> Tuple[float, float, float]:
    """(max |diag(F F^H) - 1|, max off-diagonal |F F^H|, mean Re diag(F F^H)).

    F F^H is the engine's (hybrid._gram of F^T, conjugated): on a stage of
    more than hybrid._LARGE_SLICE entries its diagonal is exactly real.
    """
    return _identity_parts(_gram(f.T, conj=True), 1.0)


def fh_parts(
    f: np.ndarray, h: np.ndarray, penalty: float = 1.0
) -> Tuple[float, float, float]:
    """Deviation of F H / sqrt(N pi/4) from penalty * I.

    penalty is the stage's sinc_penalty: sinc(step) for a quantized stage,
    1 for continuous phases.  h is N x K, and F H is measured by
    _identity_parts: all but its first min(chains, K) diagonal entries
    converge to zero.
    """
    m = _dot(f, h) / math.sqrt(h.shape[0] * QUARTER_PI)
    return _identity_parts(m, penalty)


def _stage_checks(f: np.ndarray, h: np.ndarray, penalty: float) -> Tuple[dict, dict]:
    """Both identity checks of the analog stage f of draw h; penalty is f's sinc_penalty.

    Returns the orthonormality and the F H row, each keyed by metric, the
    three parts of orthonormality_parts or fh_parts (diag_deviation,
    offdiag_deviation, diag_mean), bound and passed.  Both rows carry the
    5/sqrt(N) bound and pass when the off-diagonal stays within it and the
    diagonal within DIAG_TOL for F F^H (each row is an exact average of N
    unit-magnitude entries) or within the bound for F H.  A non-finite
    draw fails both rows, with no numpy warning.
    """
    bound = 5.0 / math.sqrt(h.shape[0])
    with np.errstate(invalid="ignore"):  # F H of an infinite entry of h
        return tuple(
            {"metric": metric, "diag_deviation": diag_dev, "offdiag_deviation": off_dev,
             "diag_mean": diag_mean, "bound": bound,
             "passed": diag_dev <= diag_tol and off_dev <= bound}
            for metric, (diag_dev, off_dev, diag_mean), diag_tol in (
                ("orthonormality", orthonormality_parts(f), DIAG_TOL),
                ("fh_convergence", fh_parts(f, h, penalty), bound),
            )
        )


def lemma_checks(
    h: np.ndarray, n_chains: int, bits: Optional[int]
) -> Tuple[dict, dict]:
    """Both identity checks of one N x K draw at one phase resolution.

    _stage_checks of the analog stage F built from the first n_chains
    columns of h (continuous phases when bits is None): the one-resolution
    call of the check that lemma_rows runs at every beta of a draw, on a
    stage from the same hybrid._analog_stages (which gives the non-finite rule).
    """
    quant = QuantizationSpec(bits) if bits is not None else None
    return _stage_checks(next(_analog_stages(h, n_chains, (quant,))), h, sinc_penalty(quant))


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
    (lemma_rng).  Its stages come from one hybrid._analog_stages, so the
    draw's channel phase is computed once for all quantized betas, and kept
    until the last of them; each beta's sinc_penalty is computed once per
    call.  The jobs are queued largest N first, seeds ascending within each
    N, as the engine queues its blocks: the largest draws hold most of the
    work, and queued last, the final one ran alone at the end of the pool.
    Queued first, they overlap on every worker: on five seeds of N = 64 to
    16384 with two workers on a 2-core host, 14% more draws per second
    for 1.7 MB more peak memory.  Rows are sorted by
    (metric, N, beta, seed), the same for any worker count.  Once every
    draw has run, one INFO line per N, in N order, gives its seeds and the
    failed rows of each metric.
    """
    _check_lists(n_values, beta_values)
    _check_int("n_seeds", n_seeds, 1)
    SystemConfig(n_antennas=min(n_values), n_pairs=n_pairs, n_rx_chains=n_rx_chains,
                 n_tx_chains=n_rx_chains, seed=seed)

    quants = [QuantizationSpec(b) if b is not None else None for b in beta_values]
    penalties = [sinc_penalty(quant) for quant in quants]

    def draw_rows(job: Tuple[int, int]) -> List[dict]:
        n, draw_seed = job
        h = sample_small_scale(n, n_pairs, lemma_rng(draw_seed, n))
        # next(stages) is an argument, so each stage is freed once checked.
        stages = _analog_stages(h, n_rx_chains, quants)
        return [{**row, "N": n, "beta": beta, "seed": draw_seed}
                for beta, penalty in zip(beta_values, penalties)
                for row in _stage_checks(next(stages), h, penalty)]

    jobs = [(n, s) for n in reversed(n_values) for s in range(seed, seed + n_seeds)]
    rows = [row for done in _pool_map(draw_rows, jobs) for row in done]
    rows.sort(key=lambda r: (r["metric"], r["N"], _beta_key(r["beta"]), r["seed"]))
    failed = Counter((r["N"], r["metric"]) for r in rows if not r["passed"])
    for n in n_values:
        log.info("N=%d: seeds=%d failed: orthonormality=%d fh_convergence=%d", n,
                 n_seeds, failed[n, "orthonormality"], failed[n, "fh_convergence"])
    return rows
