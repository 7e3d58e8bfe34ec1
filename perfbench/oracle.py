"""Straight-line reference the benchmark checks the program's outputs against.

Modelled on the test suite's oracles but independent of them, and of the
package's algorithms: the only things taken from the package are the
config record and the documented stream layout.  The relay map is formed
entry by entry (in row blocks, so N = 8192 fits in memory), norms come from
their definitions, and SINRs are summed term by term.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# RNG stream layout of the determinism contract: SeedSequence spawn keys
# (purpose, index) under the scenario seed.
TRIAL_STREAM = 0
LEMMA_STREAM = 2

# Entries of the N x N relay map formed at once (32 MB of complex128).
BLOCK_ENTRIES = 1 << 21


def _stream(seed: int, purpose: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(purpose, index))
    )


def _fading(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    re = rng.standard_normal((n, k))
    im = rng.standard_normal((n, k))
    return (re + 1j * im) / math.sqrt(2.0)


def _placement(rng: np.random.Generator, cfg) -> list:
    """Large-scale gains of both hops: area-uniform radius, log-normal shadowing."""
    gains = []
    for _ in range(2):
        u = rng.random(cfg.n_pairs)
        z = rng.standard_normal(cfg.n_pairs)
        eta = np.empty(cfg.n_pairs)
        for k in range(cfg.n_pairs):
            r2 = cfg.guard_radius_m ** 2 + u[k] * (cfg.cell_radius_m ** 2 - cfg.guard_radius_m ** 2)
            shadow = 10.0 ** (cfg.shadow_std_db * z[k] / 10.0)
            eta[k] = shadow * (math.sqrt(r2) / cfg.guard_radius_m) ** (-cfg.pathloss_exp)
        gains.append(eta)
    return gains


def analog(g: np.ndarray, chains: int, bits: Optional[int]) -> np.ndarray:
    """Row i conjugate-matches the (optionally snapped) phases of column i of g."""
    n = g.shape[0]
    f = np.empty((chains, n), dtype=complex)
    for i in range(chains):
        phase = np.angle(g[:, i])
        if bits is not None:
            spacing = 2.0 * math.pi / 2 ** bits
            phase = np.floor(np.mod(phase, 2.0 * math.pi) / spacing + 0.5) * spacing
        f[i] = np.exp(-1j * phase) / math.sqrt(n)
    return f


def trial_rate(cfg, trial: int, mode: str) -> Optional[float]:
    """Sum rate of one trial, or None when the power normalization is undefined."""
    rng = _stream(cfg.seed, TRIAL_STREAM, trial)
    n, k = cfg.n_antennas, cfg.n_pairs
    h1 = _fading(rng, n, k)
    h2 = _fading(rng, n, k)
    eta1, eta2 = _placement(rng, cfg)
    g1 = h1 * np.sqrt(eta1)
    g2 = h2 * np.sqrt(eta2)
    # Un-normalized relay map B = left @ right (N x N), formed block by block.
    if mode == "full_digital":
        left, right = g2, g1.conj().T
    else:
        f1 = analog(g1, cfg.n_rx_chains, cfg.quant_bits)
        f2 = analog(g2, cfg.n_tx_chains, cfg.quant_bits)
        left, right = f2.conj().T @ ((f2 @ g2) @ (f1 @ g1).conj().T), f1
    signal = noise = 0.0
    rows = np.zeros((k, n), dtype=complex)  # row j: g2[:, j]^H B
    step = max(1, BLOCK_ENTRIES // n)
    for lo in range(0, n, step):
        block = left[lo:lo + step] @ right
        noise += float(np.vdot(block, block).real)
        through = block @ g1
        signal += float(np.vdot(through, through).real)
        rows += g2[lo:lo + step].conj().T @ block
    den = cfg.p_user * signal + cfg.var_relay_noise * noise
    if not math.isfinite(den) or den <= 0.0:
        return None
    alpha = math.sqrt(cfg.p_relay / den)
    total = 0.0
    for j in range(k):
        row = alpha * rows[j]
        desired = interference = 0.0
        for i in range(k):
            power = cfg.p_user * abs(row @ g1[:, i]) ** 2
            if i == j:
                desired = power
            else:
                interference += power
        relay_noise = cfg.var_relay_noise * float(np.vdot(row, row).real)
        sinr = desired / (interference + relay_noise + cfg.var_dest_noise)
        total += math.log2(1.0 + sinr)
    return 0.5 * total


def mean_rate(cfg, n_trials: int, mode: str) -> float:
    """Mean sum rate over trials 0..n_trials-1, degenerate draws skipped."""
    rates = [r for r in (trial_rate(cfg, t, mode) for t in range(n_trials)) if r is not None]
    return sum(rates) / len(rates)


def lemma_rows(seed: int, n: int, n_pairs: int, chains: int, bits: Optional[int]) -> dict:
    """The two CSV rows verify-lemmas writes for one (seed, N, beta)."""
    h = _fading(_stream(seed, LEMMA_STREAM, n), n, n_pairs)
    f = analog(h, chains, bits)
    p = f @ f.conj().T
    diag_dev = off_dev = 0.0
    for i in range(chains):
        for j in range(chains):
            if i == j:
                diag_dev = max(diag_dev, abs(p[i, i] - 1.0))
            else:
                off_dev = max(off_dev, abs(p[i, j]))
    row_power = [float(np.sum(np.abs(f[i]) ** 2)) for i in range(chains)]

    step = 0.0 if bits is None else math.pi / 2 ** bits
    target = math.sin(step) / step if step else 1.0
    m = (f @ h) / math.sqrt(n * math.pi / 4.0)
    r = min(m.shape)
    fh_diag = max(abs(m[i, i] - target) for i in range(r))
    fh_off = max(
        (abs(m[i, j]) for i in range(m.shape[0]) for j in range(m.shape[1]) if i != j),
        default=0.0,
    )
    return {
        "orthonormality": (diag_dev, off_dev, sum(row_power) / chains),
        "fh_convergence": (fh_diag, fh_off, sum(m[i, i].real for i in range(r)) / r),
    }
