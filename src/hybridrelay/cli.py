"""Batch front-end: scenario parsing, sweep execution, CSV/DAT output.

All dB-to-linear conversion happens here; the library below works in linear
units only.  Output rows are written single-threaded, ordered by
(case, N, beta, mode), so a given (config, spec) pair always produces
byte-identical files regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import asymptotics, diagnostics, metrics
from .channel import canonical_drop, lemma_rng, sample_small_scale
from .config import SystemConfig
from .hybrid import QuantizationSpec
from .metrics import _env_thread_cap, monte_carlo_rates

log = logging.getLogger("hybridrelay.cli")

CASES = ("case1", "case2", "case3", "fixed_power")
MODES = ("asymptote",) + metrics.MODES
DROP_POLICIES = ("redraw_per_trial", "fixed_drop")

CSV_COLUMNS = (
    "case", "N", "beta", "mode", "mean_rate_bps_hz", "std_err",
    "trials", "asymptote_rate", "degenerate_trials",
)
LEMMA_COLUMNS = (
    "metric", "N", "beta", "seed", "diag_deviation", "offdiag_deviation",
    "diag_mean", "bound", "passed",
)

# Energies each power regime must be given (kebab-case = the CLI flags).
_REQUIRED_ENERGY = {
    "case1": ("eu-db", "er-db"),
    "case2": ("eu-db", "pr-db"),
    "case3": ("pu-db", "er-db"),
    "fixed_power": ("pu-db", "pr-db"),
}

_CASE_ALIASES = {
    "1": "case1", "2": "case2", "3": "case3", "fixed": "fixed_power",
    "case1": "case1", "case2": "case2", "case3": "case3",
    "fixed_power": "fixed_power",
}
_MODE_ALIASES = {
    "hybrid": "hybrid",
    "full": "full_digital", "full_digital": "full_digital",
    "asym": "asymptote", "asymptote": "asymptote",
}

_SYSTEM_KEYS = (
    "n_pairs", "n_rx_chains", "n_tx_chains", "var_relay_noise",
    "var_dest_noise", "cell_radius_m", "guard_radius_m", "pathloss_exp",
    "shadow_std_db", "seed",
)
_SWEEP_KEYS = (
    "case", "n_values", "beta_values", "modes", "trials",
    "eu_db", "er_db", "pu_db", "pr_db", "drop_policy", "out", "dat",
)


class UsageError(ValueError):
    """Bad invocation: wrong flags, file keys, or value combinations."""


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class SweepSpec:
    """One batch of simulation cells.

    beta_values uses None for continuous phases.  Energies are stored in dB
    exactly as given; conversion happens when the per-cell powers are built.
    """

    case: str
    n_values: Tuple[int, ...]
    beta_values: Tuple[Optional[int], ...]
    modes: Tuple[str, ...]
    trials: int = 1000
    eu_db: Optional[float] = None
    er_db: Optional[float] = None
    pu_db: Optional[float] = None
    pr_db: Optional[float] = None
    drop_policy: str = "redraw_per_trial"

    def __post_init__(self) -> None:
        if self.case not in CASES:
            raise UsageError(f"case must be one of {CASES}, got {self.case!r}")
        if not self.n_values:
            raise UsageError("n_values must not be empty")
        if any(n < 1 for n in self.n_values):
            raise UsageError("antenna counts must be positive")
        if any(a >= b for a, b in zip(self.n_values, self.n_values[1:])):
            raise UsageError("n_values must be strictly ascending")
        if not self.beta_values:
            raise UsageError("beta_values must not be empty")
        if any(b is not None and b < 1 for b in self.beta_values):
            raise UsageError("beta values must be positive integers or 'cont'")
        if not self.modes:
            raise UsageError("modes must not be empty")
        unknown = [m for m in self.modes if m not in MODES]
        if unknown:
            raise UsageError(f"unknown modes: {', '.join(unknown)}")
        if self.trials < 2:
            raise UsageError("trials must be at least 2")
        if self.drop_policy not in DROP_POLICIES:
            raise UsageError(f"drop_policy must be one of {DROP_POLICIES}")
        missing = [
            flag
            for flag in _REQUIRED_ENERGY[self.case]
            if getattr(self, flag.replace("-", "_")) is None
        ]
        if missing:
            raise UsageError(
                f"{self.case} requires settings: {', '.join(missing)}"
            )
        if self.case == "fixed_power" and "asymptote" in self.modes:
            raise UsageError("fixed_power has no closed-form asymptote")


def _beta_key(beta: Optional[int]) -> int:
    return -1 if beta is None else beta


def _cell_powers(spec: SweepSpec, n: int) -> Tuple[float, float]:
    """Per-cell linear (p_user, p_relay) under the case's scaling law."""
    if spec.case == "case1":
        return db_to_linear(spec.eu_db) / n, db_to_linear(spec.er_db) / n
    if spec.case == "case2":
        return db_to_linear(spec.eu_db) / n, db_to_linear(spec.pr_db)
    if spec.case == "case3":
        return db_to_linear(spec.pu_db), db_to_linear(spec.er_db) / n
    return db_to_linear(spec.pu_db), db_to_linear(spec.pr_db)


def _asymptote_rate(
    spec: SweepSpec,
    beta: Optional[int],
    eta: Tuple[np.ndarray, np.ndarray],
    config: SystemConfig,
) -> Optional[float]:
    """Closed-form limit rate of the cell, None where no law applies."""
    if spec.case == "fixed_power":
        return None
    delta = QuantizationSpec(beta).step if beta is not None else 0.0
    inputs = asymptotics.AsymptoticInputs(
        eta1=eta[0],
        eta2=eta[1],
        r=min(config.n_rx_chains, config.n_tx_chains, config.n_pairs),
        var_relay_noise=config.var_relay_noise,
        var_dest_noise=config.var_dest_noise,
        e_user=db_to_linear(spec.eu_db) if spec.eu_db is not None else None,
        e_relay=db_to_linear(spec.er_db) if spec.er_db is not None else None,
        delta=delta,
    )
    if spec.case == "case1":
        return asymptotics.rate_case1(inputs)
    if spec.case == "case2":
        return asymptotics.rate_case2(inputs)
    return asymptotics.rate_case3(inputs)


def run_sweep(spec: SweepSpec, config: SystemConfig) -> List[dict]:
    """Execute every cell of the sweep and return ordered result rows.

    Asymptote rows bypass sampling entirely and are computed on the
    canonical benchmark drop, which is what the fixed-drop policy pins the
    Monte-Carlo runs to as well; they do not move with trials or seed.
    Full-digital cells have no phase quantizer, so they are run once per N
    and tagged with beta = cont.  All Monte-Carlo cells of one N share one
    engine call, so each trial's fading is drawn once per N; the first
    failing cell, in the order full digital then hybrid by beta, raises.
    """
    bench_drop = canonical_drop(config)
    mc_drop = bench_drop if spec.drop_policy == "fixed_drop" else None
    betas = tuple(dict.fromkeys(spec.beta_values))
    variants = []
    if "full_digital" in spec.modes:
        variants.append(("full_digital", None))
    if "hybrid" in spec.modes:
        variants.extend(("hybrid", beta) for beta in betas)
    rows = []
    for n in spec.n_values:
        p_user, p_relay = _cell_powers(spec, n)
        base = dataclasses.replace(
            config, n_antennas=n, p_user=p_user, p_relay=p_relay
        )
        points = {}
        if variants:
            results = monte_carlo_rates(base, spec.trials, variants, drop=mc_drop)
            points = dict(zip(variants, results))
        if "full_digital" in spec.modes:
            point = points["full_digital", None]
            rows.append(_result_row(spec, n, None, "full_digital", point, None))
        for beta in betas:
            asym = _asymptote_rate(spec, beta, bench_drop, config)
            if "asymptote" in spec.modes:
                rows.append({
                    "case": spec.case, "N": n, "beta": beta,
                    "mode": "asymptote", "mean_rate_bps_hz": asym,
                    "std_err": 0.0, "trials": 0, "asymptote_rate": asym,
                    "degenerate_trials": 0,
                })
            if "hybrid" in spec.modes:
                point = points["hybrid", beta]
                rows.append(_result_row(spec, n, beta, "hybrid", point, asym))
    rows.sort(key=lambda r: (r["case"], r["N"], _beta_key(r["beta"]), r["mode"]))
    return rows


def _result_row(spec, n, beta, mode, point, asym) -> dict:
    return {
        "case": spec.case, "N": n, "beta": beta, "mode": mode,
        "mean_rate_bps_hz": point.mean_rate, "std_err": point.std_error,
        "trials": point.n_trials, "asymptote_rate": asym,
        "degenerate_trials": point.n_degenerate,
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.10g" % value
    return str(value)


def _render_row(row: dict, columns: Sequence[str]) -> List[str]:
    out = []
    for col in columns:
        value = row[col]
        if col == "beta":
            value = "cont" if value is None else value
        out.append(_format_cell(value))
    return out


def emit_csv(rows: List[dict], path: str, columns: Sequence[str] = CSV_COLUMNS) -> None:
    """Write rows as UTF-8, LF-terminated CSV; floats carry 10 significant digits.

    An empty table still gets its header line.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(_render_row(row, columns))


def emit_dat(rows: List[dict], path: str, columns: Sequence[str] = CSV_COLUMNS) -> None:
    """Companion whitespace-separated table (gnuplot-friendly, '#' header)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + " ".join(columns) + "\n")
        for row in rows:
            cells = [cell if cell else "nan" for cell in _render_row(row, columns)]
            fh.write(" ".join(cells) + "\n")


# ---------------------------------------------------------------------------
# settings merging: defaults < config file < flags
# ---------------------------------------------------------------------------

def _parse_int_list(text, what: str) -> Tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        items = list(text)
    else:
        items = [tok.strip() for tok in str(text).split(",") if tok.strip()]
    try:
        return tuple(int(tok) for tok in items)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be a comma-separated list of integers")


def _parse_beta_list(value) -> Tuple[Optional[int], ...]:
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    out = []
    for tok in items:
        tok = tok.strip().lower() if isinstance(tok, str) else tok
        if tok in ("cont", "continuous", None):
            out.append(None)
        else:
            try:
                out.append(int(tok))
            except (TypeError, ValueError):
                raise UsageError(f"bad beta value {tok!r}; use integers or 'cont'")
    return tuple(out)


def _parse_modes(value) -> Tuple[str, ...]:
    items = value if isinstance(value, (list, tuple)) else str(value).split(",")
    out = []
    for tok in items:
        name = _MODE_ALIASES.get(str(tok).strip().lower())
        if name is None:
            raise UsageError(f"unknown mode {tok!r}")
        out.append(name)
    return tuple(dict.fromkeys(out))


def _parse_case(value) -> str:
    name = _CASE_ALIASES.get(str(value).strip().lower())
    if name is None:
        raise UsageError(f"unknown case {value!r}")
    return name


def _merge_settings(args: argparse.Namespace) -> dict:
    """Overlay command-line flags onto the optional JSON settings file."""
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a flat JSON object")
        known = set(_SYSTEM_KEYS) | set(_SWEEP_KEYS)
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        settings.update(loaded)

    flag_map = {
        "case": args.case, "n_values": args.n, "beta_values": args.beta,
        "modes": args.modes, "trials": args.trials, "eu_db": args.eu_db,
        "er_db": args.er_db, "pu_db": args.pu_db, "pr_db": args.pr_db,
        "seed": args.seed, "out": args.out, "dat": args.dat,
        "n_pairs": args.n_pairs, "n_rx_chains": args.n_rx_chains,
        "n_tx_chains": args.n_tx_chains,
        "var_relay_noise": args.var_relay_noise,
        "var_dest_noise": args.var_dest_noise,
        "cell_radius_m": args.cell_radius_m,
        "guard_radius_m": args.guard_radius_m,
        "pathloss_exp": args.pathloss_exp,
        "shadow_std_db": args.shadow_std_db,
    }
    if args.fixed_drop:
        flag_map["drop_policy"] = "fixed_drop"
    for key, value in flag_map.items():
        if value is None:
            continue
        if key in settings and settings[key] != value:
            log.warning(
                "flag overrides config file: %s = %r (file had %r)",
                key, value, settings[key],
            )
        settings[key] = value
    return settings


def parse_config(settings: dict) -> Tuple[SystemConfig, SweepSpec]:
    """Build the scenario and sweep objects from merged settings.

    Unset keys fall back to the library defaults; missing required values
    and unknown keys raise UsageError naming the offenders.
    """
    if "case" not in settings:
        raise UsageError("missing required setting: case")
    if "n_values" not in settings:
        raise UsageError("missing required setting: n (antenna counts)")
    case = _parse_case(settings["case"])
    n_values = _parse_int_list(settings["n_values"], "n")
    beta_values = _parse_beta_list(settings.get("beta_values", "cont"))
    modes = _parse_modes(settings.get("modes", "hybrid"))

    spec = SweepSpec(
        case=case,
        n_values=n_values,
        beta_values=beta_values,
        modes=modes,
        trials=int(settings.get("trials", 1000)),
        eu_db=_opt_float(settings, "eu_db"),
        er_db=_opt_float(settings, "er_db"),
        pu_db=_opt_float(settings, "pu_db"),
        pr_db=_opt_float(settings, "pr_db"),
        drop_policy=str(settings.get("drop_policy", "redraw_per_trial")),
    )

    system_kwargs = {key: settings[key] for key in _SYSTEM_KEYS if key in settings}
    try:
        config = SystemConfig(n_antennas=max(spec.n_values), **system_kwargs)
        # Every cell must fit the chain counts, including the smallest array.
        dataclasses.replace(config, n_antennas=min(spec.n_values))
    except ValueError as exc:
        raise UsageError(str(exc))
    return config, spec


def _opt_float(settings: dict, key: str) -> Optional[float]:
    value = settings.get(key)
    return None if value is None else float(value)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    config, spec = parse_config(settings)
    out = settings.get("out")
    if not out:
        raise UsageError("missing required setting: out (output CSV path)")
    try:
        _env_thread_cap()
    except ValueError as exc:
        raise UsageError(str(exc))
    rows = run_sweep(spec, config)
    emit_csv(rows, out)
    if settings.get("dat"):
        emit_dat(rows, str(settings["dat"]))
    log.info("wrote %d rows to %s", len(rows), out)
    return 0


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    sizes = _parse_int_list(args.n, "n")
    if not sizes:
        raise UsageError("n must list positive antenna counts")
    if args.seeds < 1:
        raise UsageError("seeds must be positive")
    betas = _parse_beta_list(args.beta)
    # The lemmas measure one side; its chain count stands for both.
    flags = {"n_pairs": args.n_pairs, "n_rx_chains": args.n_rx_chains,
             "n_tx_chains": args.n_rx_chains, "seed": args.seed}
    try:
        config = SystemConfig(
            n_antennas=min(sizes),
            **{key: value for key, value in flags.items() if value is not None},
        )
        for beta in betas:
            if beta is not None:
                QuantizationSpec(beta)
    except ValueError as exc:
        raise UsageError(str(exc))

    rows = []
    for n in sizes:
        for seed in range(config.seed, config.seed + args.seeds):
            h = sample_small_scale(n, config.n_pairs, lemma_rng(seed, n))
            for beta in betas:
                rows.extend(
                    {**row, "N": n, "beta": beta, "seed": seed}
                    for row in diagnostics.lemma_checks(h, config.n_rx_chains, beta)
                )
    rows.sort(key=lambda r: (r["metric"], r["N"], _beta_key(r["beta"]), r["seed"]))
    emit_csv(rows, args.out, LEMMA_COLUMNS)
    log.info("wrote %d rows to %s", len(rows), args.out)
    return 0


def _add_system_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-pairs", type=int, default=None)
    parser.add_argument("--n-rx-chains", type=int, default=None)
    parser.add_argument("--n-tx-chains", type=int, default=None)
    parser.add_argument("--var-relay-noise", type=float, default=None)
    parser.add_argument("--var-dest-noise", type=float, default=None)
    parser.add_argument("--cell-radius-m", type=float, default=None)
    parser.add_argument("--guard-radius-m", type=float, default=None)
    parser.add_argument("--pathloss-exp", type=float, default=None)
    parser.add_argument("--shadow-std-db", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridrelay",
        description="Spectral-efficiency sweeps for a multipair massive-MIMO "
                    "relay with hybrid analog/digital processing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="run a rate sweep and write a CSV table",
        description="Sweep antenna counts, phase resolutions and processing "
                    "modes under one power-scaling regime.  SIM_THREADS caps "
                    "the worker count; results do not depend on it.",
    )
    sim.add_argument("--config", default=None,
                     help="JSON settings file; explicit flags override it")
    sim.add_argument("--case", default=None,
                     help="power regime: 1|2|3|fixed")
    sim.add_argument("--n", default=None,
                     help="comma-separated antenna counts, ascending")
    sim.add_argument("--beta", default=None,
                     help="comma-separated phase-shifter bits and/or 'cont'")
    sim.add_argument("--modes", default=None,
                     help="comma-separated subset of hybrid,full,asym")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--eu-db", type=float, default=None,
                     help="user energy N*p_user in dB (scaled regimes)")
    sim.add_argument("--er-db", type=float, default=None,
                     help="relay energy N*p_relay in dB (scaled regimes)")
    sim.add_argument("--pu-db", type=float, default=None,
                     help="fixed user power in dB")
    sim.add_argument("--pr-db", type=float, default=None,
                     help="fixed relay power in dB")
    sim.add_argument("--out", default=None, help="output CSV path")
    sim.add_argument("--dat", default=None,
                     help="optional whitespace-separated companion table")
    sim.add_argument("--fixed-drop", action="store_true", default=None,
                     help="pin the benchmark user placement for all trials "
                          "(default: redraw the placement every trial)")
    _add_system_flags(sim)
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser(
        "verify-lemmas",
        help="measure large-array identities of the analog stage",
        description="Writes per-seed deviations of F F^H from the identity "
                    "and of F H from its scaled identity limit.",
    )
    ver.add_argument("--n", required=True,
                     help="comma-separated antenna counts")
    ver.add_argument("--seeds", type=int, default=50,
                     help="number of seeds per size (default 50)")
    ver.add_argument("--beta", default="cont",
                     help="comma-separated bits and/or 'cont' (default cont)")
    ver.add_argument("--out", required=True, help="output CSV path")
    ver.add_argument("--n-pairs", type=int, default=None)
    ver.add_argument("--n-rx-chains", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None,
                     help="first seed of the family (default 0)")
    ver.set_defaults(func=_cmd_verify_lemmas)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns 0 on success, 2 on usage errors, 1 on failures."""
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
