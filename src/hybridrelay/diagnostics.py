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
from .hybrid import QuantizationSpec, build_analog, sinc_penalty
from .metrics import _beta_key, _check_lists

# Row norms of the analog stage are exact by construction; only float
# accumulation separates them from 1.
DIAG_TOL = 1e-12

LEMMA_COLUMNS = (
    "metric", "N", "beta", "seed", "diag_deviation", "offdiag_deviation",
    "diag_mean", "bound", "passed",
)


def orthonormality_parts(f: np.ndarray) -> Tuple[float, float]:
    """(max |diag(F F^H) - 1|, max off-diagonal |F F^H|)."""
    p = f @ f.conj().T
    diag = np.abs(np.diagonal(p) - 1.0)
    off = np.abs(p - np.diag(np.diagonal(p)))
    return float(diag.max()), float(off.max())


def fh_parts(
    f: np.ndarray,
    h: np.ndarray,
    n: int,
    quant: Optional[QuantizationSpec] = None,
) -> Tuple[float, float, float]:
    """Deviation of F H / sqrt(N pi/4) from c * I, c = sinc(step) (1 unquantized).

    The target identity covers the first r = min(chains, columns) diagonal
    entries; everything else converges to zero.  Returns (max diagonal
    deviation, max other-entry magnitude, mean real part of the diagonal).
    """
    target = sinc_penalty(quant)
    m = (f @ h) / math.sqrt(n * math.pi / 4.0)
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
    and the F H row, each keyed by metric, diag_deviation,
    offdiag_deviation, diag_mean, bound and passed.  Both rows carry the
    5/sqrt(N) bound.  F F^H passes when its diagonal matches 1 to DIAG_TOL
    (each row is an exact average of N unit-magnitude entries) and its
    off-diagonals, empirical means of N random unit phasors, stay within
    the bound; F H passes when every deviation stays within the bound.
    """
    n = h.shape[0]
    quant = QuantizationSpec(bits) if bits is not None else None
    f = build_analog(h, n_chains, quant)
    bound = 5.0 / math.sqrt(n)
    diag_dev, off_dev = orthonormality_parts(f)
    orthonormality = {
        "metric": "orthonormality", "diag_deviation": diag_dev,
        "offdiag_deviation": off_dev,
        "diag_mean": float(np.sum(np.abs(f) ** 2, axis=1).mean()),
        "bound": bound,
        "passed": diag_dev <= DIAG_TOL and off_dev <= bound,
    }
    fh_diag, fh_off, fh_mean = fh_parts(f, h, n, quant)
    return orthonormality, {
        "metric": "fh_convergence", "diag_deviation": fh_diag,
        "offdiag_deviation": fh_off, "diag_mean": fh_mean,
        "bound": bound,
        "passed": max(fh_diag, fh_off) <= bound,
    }


def lemma_rows(
    n_values: Sequence[int],
    beta_values: Sequence[Optional[int]],
    n_seeds: int,
    **scenario,
) -> List[dict]:
    """Both checks of every (N, seed, beta), keyed by LEMMA_COLUMNS.

    `scenario` holds SystemConfig fields; n_pairs, n_rx_chains and the
    first seed are read.  The lists follow a sweep's rules, and every check
    raises ValueError before the first draw.  Each (N, seed) draw is
    measured at every beta.  Rows are sorted by (metric, N, beta, seed).
    """
    _check_lists(n_values, beta_values)
    if n_seeds < 1:
        raise ValueError("seeds must be positive")
    config = SystemConfig(n_antennas=min(n_values), **scenario)
    rows = []
    for n in n_values:
        for seed in range(config.seed, config.seed + n_seeds):
            h = sample_small_scale(n, config.n_pairs, lemma_rng(seed, n))
            for beta in beta_values:
                rows.extend(
                    {**row, "N": n, "beta": beta, "seed": seed}
                    for row in lemma_checks(h, config.n_rx_chains, beta)
                )
    rows.sort(key=lambda r: (r["metric"], r["N"], _beta_key(r["beta"]), r["seed"]))
    return rows
