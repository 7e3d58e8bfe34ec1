"""Straight-line reference implementations the tests compare against.

Everything here favors obviousness over speed: the relay matrix is
materialized at full N x N size, sums are spelled out as loops, and no
Gram-matrix shortcuts are used.  The only package code used is the channel
draw and the analog stage F (build_analog with its QuantizationSpec); the
power normalization, the digital stage and the SINRs are formed here.  If the package and this file
agree, the algebraic rearrangements in the package are validated.
"""

import math

import numpy as np

from hybridrelay import QuantizationSpec, build_analog, sample_realization


def alpha_reference(a1, a2, f1, f2, p_user, p_relay, var_relay_noise):
    """Power normalization from its defining Frobenius norms, no tricks."""
    t = f2.conj().T @ (a2 @ a1.conj().T)  # N x K_r, the un-normalized relay map
    signal = np.linalg.norm(t @ a1, "fro") ** 2
    noise = np.linalg.norm(t @ f1, "fro") ** 2
    return math.sqrt(p_relay / (p_user * signal + var_relay_noise * noise))


def alpha_full_reference(g1, g2, p_user, p_relay, var_relay_noise):
    w = g2 @ g1.conj().T  # full N x N matrix, fine at test sizes
    signal = np.linalg.norm(w @ g1, "fro") ** 2
    noise = np.linalg.norm(w, "fro") ** 2
    return math.sqrt(p_relay / (p_user * signal + var_relay_noise * noise))


def analog_stages(real, config):
    """F1 (K_r x N) and F2 (K_t x N) of one realization, from build_analog."""
    bits = config.quant_bits
    quant = None if bits is None else QuantizationSpec(bits)
    return (
        build_analog(real.g1, config.n_rx_chains, quant),
        build_analog(real.g2, config.n_tx_chains, quant),
    )


def relay_matrix(real, config, alpha=None):
    """Materialized end-to-end hybrid relay map F2^H W F1 (N x N).

    The digital stage is W = alpha (F2 G2)(F1 G1)^H.  alpha defaults to
    alpha_reference; pass another to check the relay power it gives.
    """
    f1, f2 = analog_stages(real, config)
    a1, a2 = f1 @ real.g1, f2 @ real.g2
    if alpha is None:
        alpha = alpha_reference(
            a1, a2, f1, f2, config.p_user, config.p_relay, config.var_relay_noise
        )
    w = alpha * (a2 @ a1.conj().T)
    return f2.conj().T @ w @ f1


def relay_matrix_full(real, config, alpha=None):
    """Full-digital relay map alpha G2 G1^H; alpha defaults to alpha_full_reference."""
    if alpha is None:
        alpha = alpha_full_reference(
            real.g1, real.g2, config.p_user, config.p_relay, config.var_relay_noise
        )
    return alpha * (real.g2 @ real.g1.conj().T)


def relay_output_power(b, g1, p_user, var_relay_noise):
    """tr E[y y^H] for y = B (sqrt(p_u) G1 x + n_R) with white x and n_R."""
    signal = p_user * np.linalg.norm(b @ g1, "fro") ** 2
    noise = var_relay_noise * np.linalg.norm(b, "fro") ** 2
    return signal + noise


def sinr_reference(b, g1, g2, k, p_user, var_relay_noise, var_dest_noise):
    """Term-by-term SINR of pair k for an arbitrary relay matrix b."""
    row = g2[:, k].conj() @ b
    desired = p_user * abs(row @ g1[:, k]) ** 2
    interference = 0.0
    for i in range(g1.shape[1]):
        if i != k:
            interference += p_user * abs(row @ g1[:, i]) ** 2
    relay_noise = var_relay_noise * float(np.vdot(row, row).real)
    return desired / (interference + relay_noise + var_dest_noise)


def sinr_case1_reference(eta1, eta2, r, e_user, e_relay, vr, vd, delta):
    """Direct transcription of the both-sides-scaled limit for every pair."""
    c = math.sin(delta) / delta if delta else 1.0
    q = math.pi / 4.0
    s21 = sum(eta1[i] ** 2 * eta2[i] for i in range(r))
    s11 = sum(eta1[i] * eta2[i] for i in range(r))
    out = []
    for k in range(r):
        num = q ** 2 * e_user * e_relay * eta1[k] ** 2 * eta2[k] ** 2 * c ** 8
        den = (
            q * e_relay * vr * eta1[k] * eta2[k] ** 2 * c ** 6
            + q * e_user * vd * s21 * c ** 6
            + vr * vd * s11 * c ** 4
        )
        out.append(num / den)
    return out


def rate_case2_reference(eta1, r, e_user, vr, delta):
    c = math.sin(delta) / delta if delta else 1.0
    total = 0.0
    for k in range(r):
        total += math.log2(1.0 + math.pi / 4.0 * e_user * eta1[k] * c * c / vr)
    return 0.5 * total


def mc_reference(config, n_trials, mode="hybrid", drop=None):
    """Sequential Monte-Carlo loop through the materialized relay matrix.

    Returns (mean_rate, std_error, per_pair_mean_sinr) computed the slow
    way: every trial builds the full N x N relay map and evaluates each
    pair's SINR term by term.
    """
    rates = []
    sinr_rows = []
    for trial in range(n_trials):
        real = sample_realization(config, trial, drop=drop)
        if mode == "full_digital":
            b = relay_matrix_full(real, config)
        else:
            b = relay_matrix(real, config)
        sinrs = [
            sinr_reference(
                b, real.g1, real.g2, k,
                config.p_user, config.var_relay_noise, config.var_dest_noise,
            )
            for k in range(config.n_pairs)
        ]
        sinr_rows.append(sinrs)
        rates.append(0.5 * sum(math.log2(1.0 + s) for s in sinrs))
    rates = np.asarray(rates)
    se = rates.std(ddof=1) / math.sqrt(n_trials)
    return rates.mean(), se, np.asarray(sinr_rows).mean(axis=0)


def rate_case3_reference(eta1, eta2, r, e_relay, vd, delta):
    c = math.sin(delta) / delta if delta else 1.0
    s21 = sum(eta1[i] ** 2 * eta2[i] for i in range(r))
    total = 0.0
    for k in range(r):
        kernel = math.pi / 4.0 * e_relay * eta1[k] ** 2 * eta2[k] ** 2 * c * c
        total += math.log2(1.0 + kernel / (vd * s21))
    return 0.5 * total
